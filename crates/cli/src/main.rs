//! The `nimblock-cli` binary: a scriptable front-end for the Nimblock
//! FPGA-virtualization testbed. See `nimblock-cli help`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match nimblock_cli::parse(&args) {
        Ok(command) => command,
        Err(error) => {
            eprintln!("error: {error}\n\n{}", nimblock_cli::USAGE);
            return ExitCode::from(error.exit_code());
        }
    };
    let mut stdout = std::io::stdout().lock();
    match nimblock_cli::execute(&command, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}
