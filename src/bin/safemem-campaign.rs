//! `safemem-campaign`: fan out deterministic fault-injection campaigns and
//! print the differential oracle's scorecards. See `safemem-campaign --help`.
//!
//! Exit status: 0 if every campaign upheld its preset's invariants, 1 if a
//! verdict failed (the `FAIL:` line on standard error names which) or the
//! run errored, 2 on a command-line error.

use safemem::cli::{failure_line, CampaignCli};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match CampaignCli::parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match cli.execute() {
        Ok((report, failed)) => {
            print!("{report}");
            if !failed.is_empty() {
                eprintln!("{}", failure_line(&failed));
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
