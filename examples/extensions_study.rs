//! Compare the paper's schemes against the extensions its conclusion names
//! as future work: hill-climbing partitioning (Choi & Yeung) and DCRA-style
//! fast/slow classification (Cazorla et al.).
//!
//! Run with: `cargo run --release --example extensions_study`

use clustered_smt::core::schemes::{Dcra, HillClimb};
use clustered_smt::core::IqScheme;
use clustered_smt::prelude::*;

fn main() {
    let workloads = suite();
    let names = [
        "mixes/mix.2.1",
        "mixes/mix.2.2",
        "ISPEC-FSPEC/mix.2.1",
        "DH/ilp.2.1",
    ];
    println!(
        "{:<22} {}",
        "scheme",
        names
            .iter()
            .map(|n| format!("{:>20}", n.split('/').next_back().unwrap_or(n)))
            .collect::<String>()
    );

    type Mk = Box<dyn Fn(&MachineConfig) -> Box<dyn IqScheme>>;
    let schemes: Vec<(&str, Mk)> = vec![
        (
            "Icount (paper base)",
            Box::new(|_| Box::new(clustered_smt::core::schemes::Icount)),
        ),
        (
            "CSSP (paper best)",
            Box::new(|cfg| Box::new(clustered_smt::core::schemes::Cssp::new(cfg))),
        ),
        (
            "HillClimb (ext)",
            Box::new(|cfg| Box::new(HillClimb::new(cfg))),
        ),
        ("DCRA-style (ext)", Box::new(|cfg| Box::new(Dcra::new(cfg)))),
    ];

    for (label, mk) in &schemes {
        let mut row = String::new();
        for name in names {
            let w = workloads.iter().find(|w| w.name == name).unwrap();
            let cfg = MachineConfig::iq_study(32);
            let r = SimBuilder::new(cfg.clone())
                .iq_scheme_custom(mk(&cfg))
                .workload(w)
                .warmup(5_000)
                .commit_target(8_000)
                .run();
            row.push_str(&format!("{:>20.3}", r.throughput()));
        }
        println!("{label:<22} {row}");
    }
    println!("\n(throughput in committed uops/cycle; 32-entry IQ study config)");
}
