//! `expt <name>|all [options]` — regenerates one paper artefact, or all of
//! them in the paper's order over one corpus. See the crate docs.

use gittables_bench::{usage, Ctx, ExptArgs};

fn main() {
    let (selected, args) = match ExptArgs::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    let ctx = Ctx::new(args);
    // A single experiment prints its body alone; `all` separates the bodies.
    let all = selected.len() > 1;
    for e in selected {
        if all {
            println!("\n############ {} ############", e.name);
        }
        (e.run)(&ctx);
    }
    if all {
        println!("\nall {} experiments completed", selected.len());
    }
}
