//! Command-line entry point; see the library documentation for usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match perfbench::parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ois_pbio|array_pbio|array_xml|image_binq> \
                 --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    match perfbench::procfs::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to cpu {cpu}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    match perfbench::run(&opts) {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong or failed responses; see the report above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
