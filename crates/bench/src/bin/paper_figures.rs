//! Regenerates the paper's tables and figures on the simulated clusters.
//!
//! ```text
//! paper-figures [FIGURE] [--quick]
//! ```
//!
//! FIGURE is one of gf, fig4, fig8, fig9, fig10, fig11, fig12, fig13,
//! tail, repair, scale-out, overload, model, ablations or all (the
//! default).
//!
//! * `--quick` — shrink client counts/op counts for a fast smoke run; omit
//!   it to reproduce the paper-scale sweeps (minutes of wall time; build
//!   with `--release`).
//! * `--help` — print this text and exit.

use eckv_bench::{
    ablations, fig10, fig11_12, fig13, fig4, fig8, fig9, gf_kernels, model_check, overload,
    repair_interference, scale_out, tail_latency,
};
use eckv_simnet::ClusterProfile;
use eckv_ycsb::Workload;

/// Every figure name the command line accepts.
const FIGURES: [&str; 15] = [
    "gf",
    "fig4",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "tail",
    "repair",
    "scale-out",
    "overload",
    "model",
    "ablations",
    "all",
];

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Cli {
    /// Print the usage and exit.
    Help,
    /// Regenerate one figure (or `all`).
    Run { which: String, quick: bool },
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut quick = false;
    let mut which: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--help" | "-h" => return Ok(Cli::Help),
            "--quick" => quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name if which.is_some() => return Err(format!("unexpected argument '{name}'")),
            name if FIGURES.contains(&name) => which = Some(name),
            name => return Err(format!("unknown figure '{name}'")),
        }
    }
    Ok(Cli::Run {
        which: which.unwrap_or("all").to_owned(),
        quick,
    })
}

/// The `--help` text: this file's module docs, so the two cannot drift
/// apart.
fn usage() -> String {
    include_str!("paper_figures.rs")
        .lines()
        .map_while(|l| l.strip_prefix("//!"))
        .filter(|l| !l.starts_with(" ```"))
        .map(|l| format!("{}\n", l.strip_prefix(' ').unwrap_or(l)))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, quick) = match parse_args(&args) {
        Ok(Cli::Help) => {
            print!("{}", usage());
            return;
        }
        Ok(Cli::Run { which, quick }) => (which, quick),
        Err(e) => {
            eprint!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };

    let all = which == "all";
    if all || which == "gf" {
        let (table, speedup) = gf_kernels::kernel_table_with_speedup(quick);
        println!("{table}");
        println!("{}\n", gf_kernels::speedup_verdict(speedup));
    }
    if all || which == "fig4" {
        println!("{}", fig4::encode_table(quick));
        println!("{}", fig4::decode_table(quick));
        println!("{}", fig4::tuned_packet_table(quick));
    }
    if all || which == "fig8" {
        println!("{}", fig8::set_table(quick));
        println!("{}", fig8::get_table(quick, 0));
        println!("{}", fig8::get_table(quick, 2));
    }
    if all || which == "fig9" {
        println!("{}", fig9::set_breakdown(quick));
        println!("{}", fig9::get_breakdown(quick));
    }
    if all || which == "fig10" {
        println!("{}", fig10::memory_table(quick));
    }
    if all || which == "fig11" || which == "fig12" {
        let scale = if quick {
            fig11_12::Scale::quick()
        } else {
            fig11_12::Scale::paper()
        };
        for profile in [ClusterProfile::SdscComet, ClusterProfile::Ri2Edr] {
            for workload in [Workload::A, Workload::B] {
                if all || which == "fig11" {
                    println!("{}", fig11_12::latency_table(profile, workload, &scale));
                }
                if all || which == "fig12" {
                    println!("{}", fig11_12::throughput_table(profile, workload, &scale));
                }
            }
        }
    }
    if all || which == "fig13" {
        println!("{}", fig13::dfsio_table(quick));
    }
    if all || which == "tail" {
        println!("{}", tail_latency::tail_latency_table(quick));
    }
    if all || which == "repair" {
        println!("{}", repair_interference::interference_table(quick));
    }
    if all || which == "scale-out" {
        println!("{}", scale_out::scale_out_table(quick));
    }
    if all || which == "overload" {
        println!("{}", overload::goodput_table(quick));
    }
    if all || which == "model" {
        println!("{}", model_check::table());
    }
    if all || which == "ablations" {
        println!("{}", ablations::window_sweep(quick));
        println!("{}", ablations::km_sweep(quick));
        println!("{}", ablations::hybrid_sweep(quick));
        println!("{}", ablations::recovery_table(quick));
        println!("{}", ablations::lrc_locality_table());
        println!("{}", ablations::load_balance_table(quick));
        println!("{}", ablations::iterative_table(quick));
        println!("{}", ablations::availability_timeline(quick));
        println!("{}", ablations::schedule_table());
        println!("{}", ablations::ssd_table(quick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn help_is_the_module_docs_and_names_every_figure() {
        let text = usage();
        let synopsis = text.lines().nth(2).expect("synopsis line");
        assert_eq!(synopsis, "paper-figures [FIGURE] [--quick]");
        let words: Vec<&str> = text
            .split(|c: char| c.is_whitespace() || c == ',' || c == ')')
            .collect();
        for name in FIGURES {
            assert!(words.contains(&name), "{name} missing from the help");
        }
        assert!(!text.contains("```"), "code fences are stripped");
        assert!(
            !text.contains("use eckv_bench"),
            "stops at the end of the docs"
        );
        assert_eq!(parse_args(&args(&["fig4", "--help"])), Ok(Cli::Help));
    }

    #[test]
    fn unknown_flags_and_figures_are_rejected() {
        assert_eq!(
            parse_args(&args(&[])),
            Ok(Cli::Run {
                which: "all".into(),
                quick: false
            })
        );
        assert_eq!(
            parse_args(&args(&["--quick", "scale-out"])),
            Ok(Cli::Run {
                which: "scale-out".into(),
                quick: true
            })
        );
        assert!(parse_args(&args(&["--qiuck"])).is_err());
        assert!(parse_args(&args(&["fig5"])).is_err());
        assert!(parse_args(&args(&["fig4", "fig8"])).is_err());
    }
}
