use perfbench::context::RunContext;
use perfbench::run::{run, Args};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <effnet-table7|serve-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let context = RunContext::current(args.workload.name(), args.seed);
    eprintln!("perfbench: {}", context.to_json());
    let line = run(args, &context).and_then(|outcome| outcome.to_json());
    match line {
        Ok(line) => {
            // The context line lets a comparison refuse runs from
            // different kernel tiers; the result must stay the last line.
            println!("perfbench-context {}", context.to_json());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
