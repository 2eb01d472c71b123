//! The `omnet` binary: thin argv shim over [`omnet_cli`].
//!
//! Exit codes: 0 success, 2 usage, 3 value parse, 4 domain, 5 trace I/O
//! (see [`omnet_cli::CliError::exit_code`]); an empty invocation prints the
//! usage and exits 2.
//!
//! Setting `OMNET_TRACE=FILE` streams `omnet_obs` spans, events and the
//! final counter snapshot of the invoked command to `FILE` as JSON lines
//! (stdout output is unaffected).

fn main() {
    // The env-var sink is the only tracing entry point here; a bad path is
    // a hard error so a typo'd OMNET_TRACE never silently drops a trace.
    if let Err(e) = omnet_obs::init_from_env() {
        eprintln!("error: cannot open OMNET_TRACE sink: {e}");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match omnet_cli::run(&argv) {
        Ok(Some(output)) => {
            print!("{output}");
            0
        }
        Ok(None) => {
            eprint!("{}", omnet_cli::USAGE);
            if argv.is_empty() {
                2
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            if e.print_usage() {
                eprintln!();
                eprint!("{}", omnet_cli::USAGE);
            }
            e.exit_code()
        }
    };
    // `std::process::exit` runs no destructors, so flush the trace sink
    // explicitly on every path.
    omnet_obs::flush_counters();
    omnet_obs::shutdown();
    std::process::exit(code);
}
