//! Command-line harness regenerating every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p ripq-bench --bin experiments -- all
//! cargo run --release -p ripq-bench --bin experiments -- fig11
//! RIPQ_SCALE=paper cargo run --release -p ripq-bench --bin experiments -- all
//! ```
//!
//! Subcommands: `table2`, `fig9`, `fig10`, `fig11`, `fig12`, `fig13`,
//! `ablations`, `all`. Scale via `RIPQ_SCALE=quick|paper` (default quick)
//! or a `--paper` flag.

use ripq_bench::{
    ablation, print_rows, print_table2, run_fig10, run_fig11, run_fig12, run_fig13, run_fig9,
    run_perf, Scale, Series, FULL_SERIES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_flag = args.iter().any(|a| a == "--paper");
    let scale = if paper_flag {
        Scale::Paper
    } else {
        Scale::from_env()
    };
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    eprintln!("# scale: {scale:?} (RIPQ_SCALE=paper or --paper for the full sweep)");

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
        "perf" => {
            println!("\n== Performance: evaluation latency vs population ==");
            println!(
                "{:>10}{:>16}{:>16}{:>12}{:>12}{:>12}",
                "objects", "evaluate", "preprocess", "candidates", "SIR iters", "settled"
            );
            let rows = run_perf(scale);
            for r in &rows {
                let sir = r.metrics.counters.get("pf.sir_iterations").copied();
                let settled = r.metrics.counters.get("distance.scan_settled").copied();
                println!(
                    "{:>10}{:>16}{:>16}{:>12}{:>12}{:>12}",
                    r.objects,
                    format!("{:.2?}", r.evaluate),
                    format!("{:.2?}", r.preprocessing),
                    r.candidates,
                    sir.unwrap_or(0),
                    settled.unwrap_or(0),
                );
            }
            if let Some(last) = rows.last() {
                println!(
                    "\n-- metrics snapshot at {} objects (shadow pass) --",
                    last.objects
                );
                println!("{}", last.metrics.to_json());
            }
        }
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
            println!("preprocessing, cache ON : {with_cache:?}");
            println!("preprocessing, cache OFF: {without_cache:?}");
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "usage: experiments [--paper] [table2|fig9|fig10|fig11|fig12|fig13|perf|ablations|all]"
            );
            std::process::exit(2);
        }
    };

    if what == "all" {
        for name in [
            "table2",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "perf",
            "ablations",
        ] {
            run_one(name);
        }
    } else {
        run_one(what);
    }
}
