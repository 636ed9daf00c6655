//! The one validation error every simulator input reports.

/// A simulator input that failed validation, naming the offending field.
///
/// Every config validator in the workspace returns this type, so a
/// caller learns *which* knob is out of range without parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// Offending field (nested fields as `outer.inner`).
    pub field: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config field out of range: {}", self.field)
    }
}

impl std::error::Error for ConfigError {}

/// `Ok(())` when `ok` holds, otherwise the error naming `field`: the
/// straight-line check every validator is written in.
#[inline]
pub fn require(ok: bool, field: &'static str) -> Result<(), ConfigError> {
    if ok {
        Ok(())
    } else {
        Err(ConfigError { field })
    }
}
