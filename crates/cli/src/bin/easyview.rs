//! The `easyview` binary: parse arguments, run the command, print.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match ev_cli::parse_cli(&argv) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("easyview: {err}");
            eprintln!("try `easyview help`");
            return ExitCode::from(2);
        }
    };
    match ev_cli::run_cli(cli) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that stopped early (`easyview ... | head`)
                // is a normal end, as for any Unix filter.
                Err(err) if err.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("easyview: writing output: {err}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(err) => {
            eprintln!("easyview: {err}");
            ExitCode::FAILURE
        }
    }
}
