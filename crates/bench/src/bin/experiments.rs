//! Command-line harness regenerating every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p ripq-bench --bin experiments -- all
//! cargo run --release -p ripq-bench --bin experiments -- fig11
//! RIPQ_SCALE=paper cargo run --release -p ripq-bench --bin experiments -- all
//! ```
//!
//! Subcommands: `table2`, `fig9`, `fig10`, `fig11`, `fig12`, `fig13`,
//! `ablations`, `all` (the default). The scale comes from
//! `RIPQ_SCALE=quick|paper` alone (default quick). Every measured number
//! it prints comes from a `ripq_sim::Experiment` run. An unknown
//! subcommand or a second argument is a usage error (exit 2).

use ripq_bench::{
    ablation, print_rows, print_table2, run_fig10, run_fig11, run_fig12, run_fig13, run_fig9,
    Scale, Series, FULL_SERIES,
};

const USAGE: &str = "usage: experiments [table2|fig9|fig10|fig11|fig12|fig13|ablations|all]";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = match args.as_slice() {
        [] => "all",
        [one] => one.as_str(),
        _ => usage_error("expected at most one subcommand"),
    };
    let scale = Scale::from_env();

    eprintln!("# scale: {scale:?} (RIPQ_SCALE=paper for the full sweep)");

    let kl_series = [Series::KlPf, Series::KlSm];
    let hit_series = [Series::HitPf, Series::HitSm];

    let run_one = |name: &str| match name {
        "table2" => print_table2(),
        "fig9" => print_rows(
            "Figure 9: effects of query window size (range query KL divergence)",
            "window %",
            &run_fig9(scale),
            &kl_series,
        ),
        "fig10" => print_rows(
            "Figure 10: effects of k (kNN average hit rate)",
            "k",
            &run_fig10(scale),
            &hit_series,
        ),
        "fig11" => print_rows(
            "Figure 11: impact of the number of particles",
            "particles",
            &run_fig11(scale),
            FULL_SERIES,
        ),
        "fig12" => print_rows(
            "Figure 12: impact of the number of moving objects",
            "objects",
            &run_fig12(scale),
            FULL_SERIES,
        ),
        "fig13" => print_rows(
            "Figure 13: impact of the activation range",
            "range (m)",
            &run_fig13(scale),
            FULL_SERIES,
        ),
        "ablations" => {
            print_rows(
                "Ablation: negative evidence (1 = on, 0 = off)",
                "enabled",
                &ablation::negative_evidence(scale),
                FULL_SERIES,
            );
            print_rows(
                "Ablation: ESS resampling threshold (1.0 = paper SIR)",
                "threshold",
                &ablation::resampling_policy(scale),
                FULL_SERIES,
            );
            print_rows(
                "Ablation: room-enter probability",
                "probability",
                &ablation::room_enter_probability(scale),
                FULL_SERIES,
            );
            print_rows(
                "Ablation: KDE bandwidth (0 = raw anchor snap)",
                "bandwidth (m)",
                &ablation::kde_bandwidth(scale),
                FULL_SERIES,
            );
            print_rows(
                "Ablation: anchor spacing",
                "spacing (m)",
                &ablation::anchor_spacing(scale),
                FULL_SERIES,
            );
            print_rows(
                "Ablation: KLD-adaptive particles (1 = adaptive, 0 = fixed Ns)",
                "adaptive",
                &ablation::kld_adaptive(scale),
                FULL_SERIES,
            );
            print_rows(
                "Ablation: sensing noise (x = detection prob + ghost rate)",
                "detect+fp",
                &ablation::sensing_noise(scale),
                FULL_SERIES,
            );
            print_rows(
                "Ablation: fault severity (x = drop prob; jitter+outages scale with it)",
                "drop prob",
                &ablation::fault_severity(scale),
                FULL_SERIES,
            );
            println!("\n== Ablation: reader deployment strategy ==");
            for (label, r) in ablation::deployment_strategy(scale) {
                println!(
                    "{label:>10}: KL pf={:.3} sm={:.3} | hit pf={:.3} sm={:.3} | top1={:.3} top2={:.3}",
                    r.range_kl_pf, r.range_kl_sm, r.knn_hit_pf, r.knn_hit_sm,
                    r.top1_success, r.top2_success
                );
            }
            println!("\n== Generalization: other indoor topologies ==");
            for (label, r) in ablation::topology(scale) {
                println!(
                    "{label:>10}: KL pf={:.3} sm={:.3} | hit pf={:.3} sm={:.3} | top1={:.3} top2={:.3}",
                    r.range_kl_pf, r.range_kl_sm, r.knn_hit_pf, r.knn_hit_sm,
                    r.top1_success, r.top2_success
                );
            }
            let (with_cache, without_cache) = ablation::cache(scale);
            println!("\n== Ablation: particle cache (§4.5) ==");
            println!("preprocessing, cache ON : {with_cache} SIR iterations");
            println!("preprocessing, cache OFF: {without_cache} SIR iterations");
        }
        other => usage_error(&format!("unknown experiment '{other}'")),
    };

    if what == "all" {
        for name in [
            "table2",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "ablations",
        ] {
            run_one(name);
        }
    } else {
        run_one(what);
    }
}
