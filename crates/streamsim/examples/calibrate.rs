// Scratch calibration: baseline similarity + capping effect at defaults.
use streamsim::config::StreamConfig;
use streamsim::scenario::AllocationSchedule;
use streamsim::session::LinkId;
use streamsim::sim::{LinkSim, PairedSim};

fn main() {
    let cfg = StreamConfig {
        days: 1,
        ..Default::default()
    };
    // Baseline paired: no treatment.
    let paired = PairedSim {
        cfg: cfg.clone(),
        schedules: [AllocationSchedule::none(), AllocationSchedule::none()],
        seed: 7,
    };
    let sessions = paired.run();
    let (l1, l2): (Vec<_>, Vec<_>) = sessions.iter().partition(|r| r.link == LinkId::One);
    let mean = |v: &Vec<&streamsim::SessionRecord>,
                f: &dyn Fn(&streamsim::SessionRecord) -> f64| {
        v.iter()
            .map(|r| f(r))
            .filter(|x| x.is_finite())
            .sum::<f64>()
            / v.len() as f64
    };
    println!(
        "n: {} vs {} (ratio {:.3})",
        l1.len(),
        l2.len(),
        l1.len() as f64 / l2.len() as f64
    );
    for (name, f) in [
        (
            "tput",
            (&|r: &streamsim::SessionRecord| r.throughput_bps)
                as &dyn Fn(&streamsim::SessionRecord) -> f64,
        ),
        ("minrtt", &|r| r.min_rtt_s),
        ("bitrate", &|r| r.bitrate_bps),
        ("rebuf", &|r| r.rebuffer_indicator()),
        ("cancel", &|r| r.cancelled_indicator()),
        ("retx%", &|r| r.retx_fraction()),
        ("delay", &|r| r.play_delay_s),
    ] {
        let a = mean(&l1, f);
        let b = mean(&l2, f);
        println!("{name}: l1 {a:.5} l2 {b:.5} ratio {:.3}", a / b);
    }
    // Peak congestion profile, uncapped vs capped.
    for (label, p) in [("uncapped", 0.0), ("capped95", 0.95)] {
        let sim = LinkSim::new(cfg.clone(), LinkId::One, AllocationSchedule::Constant(p), 3);
        let (recs, hourly) = sim.run();
        let util: Vec<f64> = hourly
            .iter()
            .map(|h| (h.utilization * 100.0).round() / 100.0)
            .collect();
        let rtt: Vec<f64> = hourly.iter().map(|h| (h.rtt_s * 1e3).round()).collect();
        let tput = recs.iter().map(|r| r.throughput_bps).sum::<f64>() / recs.len() as f64;
        println!("{label}: tput {:.2}M util {:?}", tput / 1e6, &util[14..24]);
        println!("   rtt(ms) {:?}", &rtt[14..24]);
    }
}
