//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the readable report, every metric with its unit, and a one-line
//! JSON result last. Exits 0 only when the run's outputs were correct.

fn main() {
    let outcome =
        servebench::Args::parse(std::env::args().skip(1)).and_then(|args| servebench::run(&args));
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.render());
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}
