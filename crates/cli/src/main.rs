//! `deepxplore` — the command-line front end of deepxplore-rs.
//!
//! ```text
//! deepxplore models   [--full]                  show the zoo (Table 1 style)
//! deepxplore train    [--dataset X] [--full]    train / warm the weight cache
//! deepxplore generate --dataset X [options]     grow difference-inducing inputs
//! deepxplore campaign --dataset X [options]     run a coverage-guided fuzzing campaign
//! deepxplore coordinator [options]              serve a distributed campaign
//! deepxplore worker --connect HOST:PORT         join a distributed campaign
//! deepxplore dist --workers N [options]         coordinator + N local worker processes
//! deepxplore coverage --dataset X [options]     measure neuron coverage
//! deepxplore metrics-dump --connect HOST:PORT   scrape a live metrics endpoint
//! deepxplore serve    [options]                 multi-tenant campaign service daemon
//! deepxplore submit   --name X [options]        submit a campaign to a service daemon
//! deepxplore status   [--id N] [--report]       query a service daemon's campaigns
//! deepxplore cancel   --id N                    cancel a service campaign
//! deepxplore help                               this text
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;

const SWITCHES: &[&str] = &["full", "save-images", "preexisting", "report"];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Args::parse(&argv, SWITCHES).and_then(|a| {
        commands::flags(&a.command).map_or(Ok(()), |known| a.only(&known))?;
        Ok(a)
    });
    let parsed = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `deepxplore help` for usage");
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "models" => commands::models(&parsed),
        "train" => commands::train(&parsed),
        "generate" => commands::generate(&parsed),
        "campaign" => commands::campaign(&parsed),
        "coordinator" => commands::coordinator(&parsed),
        "worker" => commands::worker(&parsed),
        "dist" => commands::dist(&parsed),
        "coverage" => commands::coverage(&parsed),
        "metrics-dump" => commands::metrics_dump(&parsed),
        "serve" => commands::serve(&parsed),
        "submit" => commands::submit(&parsed),
        "status" => commands::status(&parsed),
        "cancel" => commands::cancel(&parsed),
        "help" | "--help" | "-h" => {
            print!("{}", commands::HELP);
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`; run `deepxplore help`").into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
