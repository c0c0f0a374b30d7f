//! Subcommand implementations.

use std::error::Error;
use std::path::PathBuf;

use deepxplore::generator::Generator;
use deepxplore::hyper::NeuronPick;
use deepxplore::{Constraint, Hyperparams};
use dx_coverage::{CoverageConfig, CoverageSignal, MetricSpec, SignalSpec};
use dx_models::{DatasetKind, Scale, Zoo, ZooConfig};
use dx_nn::util::gather_rows;
use dx_tensor::{rng, Image};

use crate::args::Args;

/// Help text for `deepxplore help`.
pub const HELP: &str = "\
deepxplore — automated whitebox testing of deep learning systems (SOSP 2017)

USAGE:
    deepxplore <command> [options]

COMMANDS:
    models      Show the fifteen-model zoo with neuron counts and accuracy.
    train       Train (or load) zoo models, warming the weight cache.
    generate    Grow difference-inducing inputs for a dataset's model trio.
    campaign    Run a persistent coverage-guided fuzzing campaign.
    coordinator Serve a distributed campaign: own the corpus, lease seeds.
    worker      Join a distributed campaign as a fuzzing worker.
    dist        Single-machine fleet: coordinator + N local worker processes.
    coverage    Measure neuron coverage of test inputs on a model.
    metrics-dump One-shot scrape of a running process's metrics endpoint.
    serve       Run the multi-tenant campaign service daemon.
    submit      Submit a campaign to a running service daemon.
    status      Query a service daemon's campaigns (all, one, or a report).
    cancel      Cancel a service campaign.
    help        Show this message.

COMMON OPTIONS:
    --dataset <mnist|imagenet|driving|pdf|drebin|all>   (default: mnist)
    --full                 Use bench-scale datasets/training (default: test scale).

OBSERVABILITY OPTIONS (campaign/coordinator/worker/dist/serve):
    --log-level <trace|debug|info|warn|error|off>
                           Stderr threshold for the structured JSONL event
                           stream (default: info).
    --trace-out <file>     Append every event (any level) to <file> as JSONL.
    --metrics-addr <addr>  Serve live Prometheus-text metrics on <addr>
                           (e.g. 127.0.0.1:9890) for the command's lifetime;
                           scrape /metrics, or `deepxplore metrics-dump
                           --connect <addr>` for a one-shot dump.

GENERATE OPTIONS:
    --seeds <N>            Seed inputs to grow from (default: 50).
    --constraint <domain|lighting|single-rect|multi-rects|clip>
                           `domain` picks the dataset's §6.2 constraint (default).
    --lambda1 <x> --lambda2 <x> --step <x> --max-iters <N>
                           Algorithm 1 hyperparameters (defaults: Table 2).
    --pick <random|nearest> obj2 neuron selection (default: random).
    --out <dir>            Write seed/diff images (image datasets) to <dir>.
    --save-images          Shorthand for --out dx-out.
    --preexisting          Count seeds the models already disagree on.
    --rng <seed>           Generator RNG seed (default: 42).

CAMPAIGN OPTIONS:
    --workers <N>          Worker threads (default: 1; 1 is deterministic).
    --epochs <N>           Epochs to run (default: 8).
    --batch <N>            Seeds grown per batched generator call — the
                           execution tile width (default: 4). Pure tiling:
                           results are bit-identical for any width. Tiles
                           are capped by --merge-every, which fixes the
                           batched-call boundaries.
    --batch-per-epoch <N>  Corpus entries fuzzed per epoch (default: 32).
    --merge-every <N>      Jobs per worker between coverage syncs with the
                           global union — also the batched-call chunk size
                           (default: 4).
    --duration <secs>      Wall-clock budget; stops at the epoch boundary.
    --seeds <N>            Initial corpus seeds from the test set (default: 64).
    --checkpoint <dir>     Write JSONL corpus/stats/diffs checkpoints to <dir>.
    --resume <dir>         Continue the campaign checkpointed in <dir>
                           (with --checkpoint, fork it into the new dir).
    --target-coverage <p>  Stop once mean coverage reaches p in (0,1].
    --max-corpus <N>       Corpus size cap (default: 4096).
    --energy <classic|rarity>
                           Corpus energy model; `rarity` weights newly
                           covered units by global-union saturation.
    --metric <spec>        Coverage signal the campaign steers by
                           (default: neuron). spec = metric[+metric...],
                           metric = neuron | multisection[:k] | boundary.
                           `multisection:k` primes per-neuron output ranges
                           from the training set at startup and counts
                           range sections (DeepGauge; k defaults to 4);
                           `boundary` counts the corner regions outside
                           those ranges (below low / above high). Joining
                           metrics with `+` (e.g. multisection:8+boundary)
                           steers by the union of the components, with
                           per-component report columns and rarity energy.
    --rng <seed>           Campaign master seed (default: 42).
    (campaign also honors generate's --constraint/--lambda1/--lambda2/
     --step/--max-iters/--pick hyperparameter options.)

COORDINATOR OPTIONS:
    --listen <addr>        Bind address (default: 127.0.0.1:4787).
    --steps <N>            Total seed-step budget; omit for unbounded.
    --batch <N>            Steps per statistics round (default: 32).
    --lease <N>            Jobs per worker lease (default: 4).
    --lease-max <N>        Adaptive lease ceiling: when above --lease,
                           per-worker lease sizes grow toward this for
                           fast workers (default: 0 = fixed leases).
    --lease-timeout <secs> Requeue a silent lease after this (default: 30).
    --auth-token <secret>  Require workers to prove this shared secret at
                           admission (HMAC challenge/response). Prefer the
                           DX_AUTH_TOKEN env var: argv is visible in `ps`.
    --spot-check-rate <p>  Re-execute this fraction of reported diffs
                           through the coordinator's own models; claims
                           that do not reproduce are quarantined and the
                           worker's lease discarded (default: 0 = off).
    --trust-threshold <p>  Evict a worker once more than this fraction of
                           its spot-checked claims failed (default: 0.5).
    --seeds/--checkpoint/--resume/--duration/--target-coverage/
    --max-corpus/--energy/--metric/--rng as for campaign. Type `drain`
    + Enter on stdin for a graceful drain + final checkpoint; EOF alone
    is ignored, so the coordinator can run detached.

WORKER OPTIONS:
    --connect <addr>       Coordinator address (required).
    --lease <N>            Jobs requested per lease (default: 4; advisory —
                           an adaptive coordinator may grant more).
    --batch <N>            Seeds grown per batched generator call within a
                           lease (default: 4).
    --heartbeat-every <N>  Heartbeat once this many jobs ran since the last
                           one, between batched calls (default: 1).
    --auth-token <secret>  Shared secret answering the coordinator's auth
                           challenge (or the DX_AUTH_TOKEN env var).
    (Pass the same --dataset/--full/--metric/hyperparameter flags as the
     coordinator; model shapes, the coverage metric, hyperparameters and
     the constraint are all fingerprinted and verified at admission.)

DIST OPTIONS:
    --workers <N>          Local worker processes to spawn (default: 2).
    (Plus all coordinator options; --listen defaults to an ephemeral port.
     The auth token is forwarded to spawned workers via DX_AUTH_TOKEN,
     never via argv.)

COVERAGE OPTIONS:
    --model <id>           Model id (default: the dataset's C1).
    --inputs <N>           Random test inputs to measure (default: 100).
    --threshold <t>        Activation threshold (default: 0.25, scaled).

SERVE OPTIONS (the long-running multi-tenant daemon):
    --listen <addr>        Worker-fleet bind address (default: 127.0.0.1:4787).
    --api-addr <addr>      HTTP control-plane address (default: 127.0.0.1:8787);
                           also serves per-tenant /metrics.
    --state-dir <dir>      Per-tenant checkpoints under <dir>/<id>/; the
                           daemon resumes every tenant from here on restart.
    --max-tenants <N>      Live (non-terminal) campaign cap (default: 8).
    --seeds <N>            Rows in the shared seed pool tenants slice
                           (default: 64), drawn with --rng as elsewhere.
    --batch <N>            Absorbed steps per tenant statistics round
                           (default: 16).
    --lease/--lease-timeout/--max-corpus/--energy/--auth-token as for
    coordinator. SIGTERM or Ctrl-C drains in-flight leases and writes a
    final checkpoint for every tenant before exiting.

SERVICE CLIENT OPTIONS (submit/status/cancel):
    --api <addr>           Daemon API address (default: 127.0.0.1:8787).
    submit: --name <campaign> (required); --seeds <N> --seed-offset <N>
            --rng <seed> --steps <N> --target-coverage <p> --quota <p>
            --weight <x>; --metric/--constraint assert the fleet's setup.
    status: --id <N> for one campaign (add --report for the rendered
            campaign report); no --id lists all campaigns.
    cancel: --id <N> (required).
";

type CmdResult = Result<(), Box<dyn Error>>;

/// Applies the observability flags shared by the long-running commands:
/// `--log-level` sets the stderr threshold of the structured event
/// stream, `--trace-out` appends every event to a JSONL file, and
/// `--metrics-addr` serves the process-global metrics registry as
/// Prometheus text. The returned server (if any) answers scrapes for as
/// long as the caller holds it — keep it alive for the whole command.
fn init_telemetry(
    args: &Args,
) -> Result<Option<dx_telemetry::http::MetricsServer>, Box<dyn Error>> {
    if let Some(level) = args.get("log-level") {
        let level = level
            .parse::<dx_telemetry::events::Level>()
            .map_err(|e| format!("option --log-level: {e}"))?;
        dx_telemetry::events::set_level(level);
    }
    if let Some(path) = args.get("trace-out") {
        dx_telemetry::events::set_trace_file(path)
            .map_err(|e| format!("option --trace-out: {e}"))?;
    }
    match args.get("metrics-addr") {
        None => Ok(None),
        Some(addr) => {
            let server = dx_telemetry::http::serve(addr, dx_telemetry::global().clone())
                .map_err(|e| format!("option --metrics-addr: {e}"))?;
            println!("metrics endpoint on http://{}/metrics", server.addr());
            Ok(Some(server))
        }
    }
}

/// `deepxplore metrics-dump`: one-shot scrape of a `--metrics-addr`
/// endpoint, printed as Prometheus text.
pub fn metrics_dump(args: &Args) -> CmdResult {
    let addr = args.get("connect").ok_or("metrics-dump needs --connect <host:port>")?;
    print!("{}", dx_telemetry::http::scrape(addr)?);
    Ok(())
}

fn zoo_for(args: &Args) -> Zoo {
    let scale = if args.has("full") { Scale::Full } else { Scale::Test };
    Zoo::new(ZooConfig::new(scale))
}

fn dataset_kinds(args: &Args) -> Result<Vec<DatasetKind>, Box<dyn Error>> {
    match args.get_or("dataset", "mnist") {
        "all" => Ok(DatasetKind::ALL.to_vec()),
        "mnist" => Ok(vec![DatasetKind::Mnist]),
        "imagenet" => Ok(vec![DatasetKind::Imagenet]),
        "driving" => Ok(vec![DatasetKind::Driving]),
        "pdf" => Ok(vec![DatasetKind::Pdf]),
        "drebin" => Ok(vec![DatasetKind::Drebin]),
        other => Err(format!("unknown dataset `{other}`").into()),
    }
}

fn trio_ids(kind: DatasetKind) -> [&'static str; 3] {
    match kind {
        DatasetKind::Mnist => ["MNI_C1", "MNI_C2", "MNI_C3"],
        DatasetKind::Imagenet => ["IMG_C1", "IMG_C2", "IMG_C3"],
        DatasetKind::Driving => ["DRV_C1", "DRV_C2", "DRV_C3"],
        DatasetKind::Pdf => ["PDF_C1", "PDF_C2", "PDF_C3"],
        DatasetKind::Drebin => ["APP_C1", "APP_C2", "APP_C3"],
    }
}

/// `deepxplore models`.
pub fn models(args: &Args) -> CmdResult {
    let mut zoo = zoo_for(args);
    println!(
        "{:<8} {:<22} {:>9} {:>10} {:>12} {:>10}",
        "id", "architecture", "#neurons", "params", "fwd MFLOPs", "accuracy"
    );
    for kind in dataset_kinds(args)? {
        for id in trio_ids(kind) {
            let spec = dx_models::SPECS.iter().find(|s| s.id == id).expect("known id");
            let net = zoo.model(id);
            let neurons = CoverageSignal::neuron(&net, CoverageConfig::default()).total();
            let mflops = dx_nn::cost::forward_cost(&net).flops() as f64 / 1e6;
            println!(
                "{:<8} {:<22} {:>9} {:>10} {:>12.2} {:>9.2}%",
                id,
                spec.arch,
                neurons,
                net.param_count(),
                mflops,
                100.0 * zoo.accuracy(id)
            );
        }
    }
    Ok(())
}

/// `deepxplore train`.
pub fn train(args: &Args) -> CmdResult {
    let mut zoo = zoo_for(args);
    for kind in dataset_kinds(args)? {
        for id in trio_ids(kind) {
            let _ = zoo.model(id);
            println!("{id}: ready (accuracy {:.2}%)", 100.0 * zoo.accuracy(id));
        }
    }
    println!("weight cache: {}", zoo.config().cache_dir.display());
    Ok(())
}

fn constraint_for(
    args: &Args,
    kind: DatasetKind,
    ds: &dx_datasets::Dataset,
) -> Result<Constraint, Box<dyn Error>> {
    let domain_default = match kind {
        DatasetKind::Mnist | DatasetKind::Imagenet | DatasetKind::Driving => Constraint::Lighting,
        DatasetKind::Pdf => Constraint::PdfFeatures {
            scale: ds.feature_scale.as_ref().expect("pdf scales").data().to_vec(),
        },
        DatasetKind::Drebin => Constraint::DrebinManifest {
            manifest_mask: ds.manifest_mask.clone().expect("drebin mask"),
        },
    };
    match args.get_or("constraint", "domain") {
        "domain" => Ok(domain_default),
        "lighting" => Ok(Constraint::Lighting),
        "clip" => Ok(Constraint::Clip),
        "single-rect" => {
            let shape = ds.sample_shape();
            if shape.len() != 3 {
                return Err("single-rect applies to image datasets only".into());
            }
            Ok(Constraint::SingleRect { h: shape[1] / 4, w: shape[2] / 4 })
        }
        "multi-rects" => Ok(Constraint::MultiRects { size: 3, count: 5 }),
        other => Err(format!("unknown constraint `{other}`").into()),
    }
}

fn hyperparams_for(args: &Args, kind: DatasetKind) -> Result<Hyperparams, Box<dyn Error>> {
    let base = match kind {
        DatasetKind::Pdf => Hyperparams::pdf_defaults(),
        DatasetKind::Drebin => Hyperparams::drebin_defaults(),
        _ => Hyperparams::image_defaults(),
    };
    Ok(Hyperparams {
        lambda1: args.get_num("lambda1", base.lambda1)?,
        lambda2: args.get_num("lambda2", base.lambda2)?,
        step: args.get_num("step", base.step)?,
        max_iters: args.get_num("max-iters", base.max_iters)?,
        count_preexisting: args.has("preexisting"),
        neuron_pick: match args.get_or("pick", "random") {
            "random" => NeuronPick::Random,
            "nearest" => NeuronPick::Nearest,
            other => return Err(format!("unknown pick strategy `{other}`").into()),
        },
        ..base
    })
}

fn task_for(kind: DatasetKind) -> deepxplore::generator::TaskKind {
    match kind {
        DatasetKind::Driving => deepxplore::generator::TaskKind::Regression {
            direction_threshold: dx_datasets::driving::STEER_DIRECTION_THRESHOLD,
        },
        _ => deepxplore::generator::TaskKind::Classification,
    }
}

fn single_dataset(args: &Args, command: &str) -> Result<DatasetKind, Box<dyn Error>> {
    let kinds = dataset_kinds(args)?;
    if kinds.len() != 1 {
        return Err(format!("{command} needs a single --dataset").into());
    }
    Ok(kinds[0])
}

/// `deepxplore generate`.
pub fn generate(args: &Args) -> CmdResult {
    let kind = single_dataset(args, "generate")?;
    let mut zoo = zoo_for(args);
    let models = zoo.trio(kind);
    let ds = zoo.dataset(kind).clone();
    let constraint = constraint_for(args, kind, &ds)?;
    let hp = hyperparams_for(args, kind)?;
    let task = task_for(kind);
    let n_seeds: usize = args.get_num("seeds", 50)?;
    let rng_seed: u64 = args.get_num("rng", 42)?;

    let mut gen =
        Generator::new(models, task, hp, constraint, CoverageConfig::scaled(0.25), rng_seed);
    let mut r = rng::rng(rng_seed ^ 0x5eed);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n_seeds.min(ds.test_len()));
    let seeds = gather_rows(&ds.test_x, &picks);
    let result = gen.run(&seeds);
    println!(
        "{} differences from {} seeds in {:.1?} ({} iterations); coverage {:.1}%",
        result.stats.differences_found,
        result.stats.seeds_tried,
        result.stats.elapsed,
        result.stats.total_iterations,
        100.0 * gen.mean_coverage()
    );
    for (i, t) in result.tests.iter().enumerate().take(10) {
        println!(
            "  #{i}: seed {} -> {:?} after {} iters (target model {})",
            t.seed_index, t.predictions, t.iterations, t.target_model
        );
    }

    let out_dir: Option<PathBuf> = if args.has("save-images") {
        Some(PathBuf::from("dx-out"))
    } else {
        args.get("out").map(PathBuf::from)
    };
    if let Some(dir) = out_dir {
        if ds.sample_shape().len() == 3 {
            std::fs::create_dir_all(&dir)?;
            for (i, t) in result.tests.iter().enumerate() {
                let shape = ds.sample_shape().to_vec();
                let ext = if shape[0] >= 3 { "ppm" } else { "pgm" };
                let seed_img =
                    Image::from_tensor(gather_rows(&seeds, &[t.seed_index]).reshape(&shape));
                let gen_img = Image::from_tensor(t.input.reshape(&shape));
                seed_img.save(&dir.join(format!("{}_{i}_seed.{ext}", kind.id())))?;
                gen_img.save(&dir.join(format!("{}_{i}_diff.{ext}", kind.id())))?;
            }
            println!("images written to {}", dir.display());
        } else {
            println!("--out ignored: {} is not an image dataset", kind.id());
        }
    }
    Ok(())
}

/// Training inputs each process replays to prime multisection profiles.
/// A fixed prefix of the training set, so every member of a distributed
/// fleet derives bit-identical profiles (and thus matching fingerprints).
const PROFILE_INPUTS: usize = 128;

/// Builds the model suite a campaign/coordinator/worker runs on, plus the
/// dataset and the suite label used as the distributed-admission
/// fingerprint. With a profile-based `--metric` (any spec mentioning
/// `multisection` or `boundary`), per-model neuron profiles are primed
/// from the training set here, at startup.
fn build_suite(
    args: &Args,
    command: &str,
) -> Result<(DatasetKind, dx_campaign::ModelSuite, dx_datasets::Dataset, String), Box<dyn Error>> {
    let kind = single_dataset(args, command)?;
    let mut zoo = zoo_for(args);
    let models = zoo.trio(kind);
    let ds = zoo.dataset(kind).clone();
    let metric: MetricSpec = args
        .get_or("metric", "neuron")
        .parse()
        .map_err(|e: String| format!("option --metric: {e}"))?;
    let mut signal = SignalSpec::of(CoverageConfig::scaled(0.25), metric.clone(), Vec::new());
    // On resume the checkpointed profiles are authoritative and replace
    // whatever the suite carries, so priming here would be thrown away —
    // skip the (hundreds of) forward passes. Workers have no resume path
    // and always prime.
    let resuming = command != "worker" && args.get("resume").is_some();
    if metric.needs_profiles() {
        if resuming {
            println!("{metric} profiles will be restored from the checkpoint");
        } else {
            let n = PROFILE_INPUTS.min(ds.train_x.shape()[0]);
            signal = signal.primed(&models, &ds.train_x, n);
            println!("primed {metric} profiles from {n} training inputs");
        }
    }
    let suite = dx_campaign::ModelSuite {
        models,
        kind: task_for(kind),
        hp: hyperparams_for(args, kind)?,
        constraint: constraint_for(args, kind, &ds)?,
        signal,
    };
    let scale = if args.has("full") { "full" } else { "test" };
    let label = format!("{}@{scale}", kind.id());
    Ok((kind, suite, ds, label))
}

fn parse_duration(args: &Args) -> Result<Option<std::time::Duration>, Box<dyn Error>> {
    match args.get("duration") {
        None => Ok(None),
        Some(v) => {
            let secs =
                v.parse::<f64>().map_err(|_| format!("option --duration: cannot parse `{v}`"))?;
            Ok(Some(
                std::time::Duration::try_from_secs_f64(secs).map_err(|_| {
                    format!("option --duration: `{v}` is not a non-negative duration")
                })?,
            ))
        }
    }
}

/// `--target-coverage`: a mean-coverage fraction in (0, 1], the range
/// `CampaignSpec::validate` holds submitted campaigns to. `80` (meant as
/// percent) and `NaN` would never stop a campaign; `0` would stop it
/// before its first step.
fn parse_target_coverage(args: &Args) -> Result<Option<f32>, Box<dyn Error>> {
    let Some(v) = args.get("target-coverage") else { return Ok(None) };
    let p: f32 = v.parse().map_err(|_| format!("option --target-coverage: cannot parse `{v}`"))?;
    if !(p > 0.0 && p <= 1.0) {
        return Err(format!("option --target-coverage: `{v}` is not a fraction in (0, 1]").into());
    }
    Ok(Some(p))
}

fn initial_seeds(
    args: &Args,
    ds: &dx_datasets::Dataset,
) -> Result<dx_tensor::Tensor, Box<dyn Error>> {
    let n_seeds: usize = args.get_num("seeds", 64)?;
    let rng_seed: u64 = args.get_num("rng", 42)?;
    let mut r = rng::rng(rng_seed ^ 0x5eed);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n_seeds.min(ds.test_len()));
    Ok(gather_rows(&ds.test_x, &picks))
}

/// `deepxplore campaign`.
pub fn campaign(args: &Args) -> CmdResult {
    let _metrics = init_telemetry(args)?;
    let (_, suite, ds, _) = build_suite(args, "campaign")?;
    let resume_dir = args.get("resume").map(PathBuf::from);
    let checkpoint_dir = args.get("checkpoint").map(PathBuf::from).or_else(|| resume_dir.clone());
    let config = dx_campaign::CampaignConfig {
        workers: args.get_num("workers", 1)?,
        epochs: args.get_num("epochs", 8)?,
        batch_per_epoch: args.get_num("batch-per-epoch", 32)?,
        batch: args.get_num("batch", 4)?,
        merge_every: args.get_num("merge-every", 4)?,
        duration: parse_duration(args)?,
        desired_coverage: parse_target_coverage(args)?,
        checkpoint_dir: checkpoint_dir.clone(),
        seed: args.get_num("rng", 42)?,
        max_corpus: args.get_num("max-corpus", 4096)?,
        energy: args.get_num("energy", dx_campaign::EnergyModel::Classic)?,
        registry: dx_telemetry::global().clone(),
    };
    for (flag, value) in [
        ("workers", config.workers),
        ("epochs", config.epochs),
        ("batch-per-epoch", config.batch_per_epoch),
        ("batch", config.batch),
        ("merge-every", config.merge_every),
        ("max-corpus", config.max_corpus),
    ] {
        if value == 0 {
            return Err(format!("option --{flag} must be at least 1").into());
        }
    }
    let mut campaign = match &resume_dir {
        Some(dir) => {
            if args.get("rng").is_some() {
                eprintln!("note: --rng is ignored on resume; the campaign keeps its original seed");
            }
            let c = dx_campaign::Campaign::resume_from(suite, dir, config)?;
            println!(
                "resumed from {}: {} epochs done, corpus {}, {} diffs so far (seed {})",
                dir.display(),
                c.epochs_done(),
                c.corpus().len(),
                c.diffs().len(),
                c.seed()
            );
            c
        }
        None => dx_campaign::Campaign::new(suite, &initial_seeds(args, &ds)?, config),
    };
    let epochs_before = campaign.epochs_done();
    campaign.run()?;
    print!("{}", campaign.report().render());
    println!(
        "coverage per model: [{}]",
        campaign
            .coverage()
            .iter()
            .map(|c| format!("{:.1}%", 100.0 * c))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("coverage over time:");
    for (secs, cov) in campaign.report().coverage_curve() {
        println!("  {secs:>8.2}s {:>6.2}%", 100.0 * cov);
    }
    if let Some(dir) = checkpoint_dir.filter(|_| campaign.epochs_done() > epochs_before) {
        let dir = dir.display();
        println!("checkpoint written to {dir} (resume with --resume {dir})");
    }
    Ok(())
}

/// The shared fleet secret: `--auth-token` or the `DX_AUTH_TOKEN`
/// environment variable (preferred — argv is world-readable via `ps`).
fn auth_token(args: &Args) -> Option<String> {
    args.get("auth-token")
        .map(str::to_string)
        .or_else(|| std::env::var("DX_AUTH_TOKEN").ok().filter(|t| !t.is_empty()))
}

fn dist_config(args: &Args) -> Result<dx_dist::CoordinatorConfig, Box<dyn Error>> {
    let spot_check_rate: f32 = args.get_num("spot-check-rate", 0.0)?;
    if !(0.0..=1.0).contains(&spot_check_rate) {
        return Err("option --spot-check-rate must be in [0, 1]".into());
    }
    let trust_threshold: f32 = args.get_num("trust-threshold", 0.5)?;
    if !(0.0..=1.0).contains(&trust_threshold) {
        return Err("option --trust-threshold must be in [0, 1]".into());
    }
    let cfg = dx_dist::CoordinatorConfig {
        batch_per_round: args.get_num("batch", 32)?,
        max_steps: match args.get("steps") {
            None => None,
            Some(v) => Some(
                v.parse::<usize>().map_err(|_| format!("option --steps: cannot parse `{v}`"))?,
            ),
        },
        duration: parse_duration(args)?,
        target_coverage: parse_target_coverage(args)?,
        lease_size: args.get_num("lease", 4)?,
        lease_max: args.get_num("lease-max", 0)?,
        lease_timeout: std::time::Duration::try_from_secs_f64(args.get_num("lease-timeout", 30.0)?)
            .map_err(|_| "option --lease-timeout: expects a non-negative duration".to_string())?,
        checkpoint_dir: args.get("checkpoint").or_else(|| args.get("resume")).map(PathBuf::from),
        max_corpus: args.get_num("max-corpus", 4096)?,
        seed: args.get_num("rng", 42)?,
        energy: args.get_num("energy", dx_campaign::EnergyModel::Classic)?,
        registry: dx_telemetry::global().clone(),
        auth_token: auth_token(args),
        spot_check_rate,
        trust_threshold,
    };
    for (flag, value) in [("batch", cfg.batch_per_round), ("lease", cfg.lease_size)] {
        if value == 0 {
            return Err(format!("option --{flag} must be at least 1").into());
        }
    }
    Ok(cfg)
}

fn build_coordinator(
    args: &Args,
    suite: &dx_campaign::ModelSuite,
    ds: &dx_datasets::Dataset,
    label: &str,
) -> Result<dx_dist::Coordinator, Box<dyn Error>> {
    let cfg = dist_config(args)?;
    Ok(match args.get("resume") {
        Some(dir) => {
            // With --checkpoint too, fork: load from the resume dir, write
            // future checkpoints to the new dir (as campaign does).
            let c =
                dx_dist::Coordinator::resume_from(suite, label, std::path::Path::new(dir), cfg)?;
            println!(
                "resumed from {dir}: {} steps done, coverage {:.1}%",
                c.steps_done(),
                100.0 * c.mean_coverage()
            );
            c
        }
        None => dx_dist::Coordinator::new(suite, label, &initial_seeds(args, ds)?, cfg),
    })
}

fn print_dist_report(report: &dx_dist::DistReport, checkpoint: Option<&str>) {
    print!("{}", report.render());
    println!(
        "merged coverage per model: [{}]",
        report.coverage.iter().map(|c| format!("{:.1}%", 100.0 * c)).collect::<Vec<_>>().join(", ")
    );
    if let Some(dir) = checkpoint {
        println!("checkpoint written to {dir} (resume with --resume {dir})");
    }
}

/// `deepxplore coordinator`.
pub fn coordinator(args: &Args) -> CmdResult {
    let _metrics = init_telemetry(args)?;
    let (_, suite, ds, label) = build_suite(args, "coordinator")?;
    let coordinator = build_coordinator(args, &suite, &ds, &label)?;
    // The first SIGTERM/Ctrl-C drains (the daemon polls the flag); the
    // second kills the process outright.
    dx_dist::shutdown::install();
    let listener = std::net::TcpListener::bind(args.get_or("listen", "127.0.0.1:4787"))?;
    println!("coordinator serving `{label}` on {}", listener.local_addr()?);
    println!(
        "worker auth: {}; spot-check rate: {}",
        if auth_token(args).is_some() { "required" } else { "off" },
        args.get_or("spot-check-rate", "0")
    );
    println!("type `drain` + Enter (or send SIGTERM) for a graceful drain");
    let handle = coordinator.drain_handle();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) | Err(_) => return, // EOF: keep serving (daemon-style).
                Ok(_) if line.trim() == "drain" => {
                    dx_telemetry::events::emit(
                        dx_telemetry::events::Level::Info,
                        "coordinator",
                        "drain_requested",
                        &[("source", "stdin".into())],
                    );
                    handle.drain();
                    return;
                }
                Ok(_) => {}
            }
        }
    });
    let report = coordinator.serve(listener)?;
    print_dist_report(&report, args.get("checkpoint").or_else(|| args.get("resume")));
    Ok(())
}

/// `deepxplore worker`.
pub fn worker(args: &Args) -> CmdResult {
    let _metrics = init_telemetry(args)?;
    let (_, suite, _, label) = build_suite(args, "worker")?;
    let addr = args.get("connect").ok_or("worker needs --connect <host:port>")?;
    let cfg = dx_dist::WorkerConfig {
        lease_size: args.get_num("lease", 4)?,
        batch: args.get_num("batch", 4)?,
        heartbeat_every: args.get_num("heartbeat-every", 1)?,
        auth_token: auth_token(args),
        ..Default::default()
    };
    println!("worker joining `{label}` at {addr}");
    let summary = dx_dist::run_worker(addr, suite, &label, cfg)?;
    println!(
        "worker {} done: {} steps, {} diffs, local coverage [{}]",
        summary.slot,
        summary.steps,
        summary.diffs_found,
        summary
            .coverage
            .iter()
            .map(|c| format!("{:.1}%", 100.0 * c))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

/// The argv of a worker `dist` spawns against `addr`. It forwards every
/// flag `build_suite` reads, switches included, so the worker's
/// admission fingerprint matches the coordinator's, plus the worker's
/// own lease, heartbeat and log flags.
fn worker_argv(args: &Args, addr: &str) -> Vec<String> {
    let mut argv = vec!["worker".to_string(), "--connect".to_string(), addr.to_string()];
    for flag in [
        "dataset",
        "metric",
        "constraint",
        "lambda1",
        "lambda2",
        "step",
        "max-iters",
        "pick",
        "lease",
        "heartbeat-every",
        "log-level",
    ] {
        if let Some(v) = args.get(flag) {
            argv.extend([format!("--{flag}"), v.to_string()]);
        }
    }
    for switch in ["full", "preexisting"] {
        if args.has(switch) {
            argv.push(format!("--{switch}"));
        }
    }
    argv
}

/// `deepxplore dist`: coordinator plus N spawned local worker processes.
pub fn dist(args: &Args) -> CmdResult {
    let _metrics = init_telemetry(args)?;
    // Building the suite here also warms the zoo weight cache, so the
    // spawned workers load instead of racing to train.
    let (_, suite, ds, label) = build_suite(args, "dist")?;
    let n_workers: usize = args.get_num("workers", 2)?;
    if n_workers == 0 {
        return Err("option --workers must be at least 1".into());
    }
    let coordinator = build_coordinator(args, &suite, &ds, &label)?;
    dx_dist::shutdown::install();
    let listener = std::net::TcpListener::bind(args.get_or("listen", "127.0.0.1:0"))?;
    let addr = listener.local_addr()?;
    println!("dist campaign `{label}` on {addr} with {n_workers} local worker processes");
    let exe = std::env::current_exe()?;
    let forwarded = worker_argv(args, &addr.to_string());
    let mut children = Vec::new();
    for _ in 0..n_workers {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&forwarded);
        // The fleet secret travels by environment, never argv (visible in
        // `ps`); spawned workers answer the coordinator's challenge with it.
        if let Some(token) = auth_token(args) {
            cmd.env("DX_AUTH_TOKEN", token);
        }
        children.push(cmd.spawn()?);
    }
    // Watch the fleet: if every worker process exits (crash, reject, OOM
    // kill) the coordinator would otherwise serve an empty campaign
    // forever — drain it instead so `dist` always terminates. Waiting on
    // each child in turn also reaps them.
    let fleet_handle = coordinator.drain_handle();
    let watcher = std::thread::spawn(move || {
        for mut child in children {
            let _ = child.wait();
        }
        fleet_handle.drain();
    });
    let served = coordinator.serve(listener);
    // On a clean finish the workers drain and the watcher sees them exit;
    // on a serve error they hit connection failures and exit on their own.
    // Either way the watcher terminates once the fleet is gone.
    watcher.join().expect("fleet watcher panicked");
    let report = served?;
    print_dist_report(&report, args.get("checkpoint").or_else(|| args.get("resume")));
    Ok(())
}

/// `deepxplore coverage`.
pub fn coverage(args: &Args) -> CmdResult {
    let kinds = dataset_kinds(args)?;
    if kinds.len() != 1 {
        return Err("coverage needs a single --dataset".into());
    }
    let kind = kinds[0];
    let mut zoo = zoo_for(args);
    let default_model = trio_ids(kind)[0];
    let id = args.get_or("model", default_model);
    let net = zoo.model(id);
    let ds = zoo.dataset(kind).clone();
    let n: usize = args.get_num("inputs", 100)?;
    let t: f32 = args.get_num("threshold", 0.25)?;
    let mut tracker = CoverageSignal::neuron(&net, CoverageConfig::scaled(t));
    let mut r = rng::rng(7);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n.min(ds.test_len()));
    let (mut curve, mut seen) = (Vec::new(), 0);
    net.for_each_row(&ds.test_x, &picks, |row| {
        tracker.update(row);
        seen += 1;
        if seen % (n / 10).max(1) == 0 {
            curve.push((seen, tracker.coverage()));
        }
    });
    println!(
        "{id}: {} / {} neurons covered ({:.1}%) by {} inputs at t = {t}",
        tracker.covered_count(),
        tracker.total(),
        100.0 * tracker.coverage(),
        picks.len()
    );
    println!("saturation curve:");
    for (k, c) in curve {
        println!("  {k:>5} inputs: {:>5.1}%", 100.0 * c);
    }
    Ok(())
}

/// `deepxplore serve`: the multi-tenant campaign service daemon — one
/// worker fleet, many concurrent campaigns, driven over HTTP.
pub fn serve(args: &Args) -> CmdResult {
    let _metrics = init_telemetry(args)?;
    let (_, suite, ds, label) = build_suite(args, "serve")?;
    let pool = initial_seeds(args, &ds)?;
    let cfg = dx_service::ServiceConfig {
        state_dir: args.get("state-dir").map(PathBuf::from),
        max_tenants: args.get_num("max-tenants", 8)?,
        batch_per_round: args.get_num("batch", 16)?,
        lease_size: args.get_num("lease", 4)?,
        lease_timeout: std::time::Duration::try_from_secs_f64(args.get_num("lease-timeout", 30.0)?)
            .map_err(|_| "option --lease-timeout: expects a non-negative duration".to_string())?,
        max_corpus: args.get_num("max-corpus", 4096)?,
        energy: args.get_num("energy", dx_campaign::EnergyModel::Classic)?,
        auth_token: auth_token(args),
        registry: dx_telemetry::global().clone(),
    };
    for (flag, value) in [
        ("batch", cfg.batch_per_round),
        ("lease", cfg.lease_size),
        ("max-tenants", cfg.max_tenants),
    ] {
        if value == 0 {
            return Err(format!("option --{flag} must be at least 1").into());
        }
    }
    let svc = std::sync::Arc::new(dx_service::Service::new(&suite, &label, &pool, cfg)?);
    // The first SIGTERM/Ctrl-C drains (the daemon polls the flag); the
    // second kills the process outright.
    dx_dist::shutdown::install();
    let api = dx_service::api::router(std::sync::Arc::clone(&svc))
        .serve(args.get_or("api-addr", "127.0.0.1:8787"))?;
    let listener = std::net::TcpListener::bind(args.get_or("listen", "127.0.0.1:4787"))?;
    println!(
        "service `{label}`: fleet on {}, API on http://{}",
        listener.local_addr()?,
        api.addr()
    );
    println!(
        "worker auth: {}; seed pool: {} rows; {} tenant(s) resumed",
        if auth_token(args).is_some() { "required" } else { "off" },
        svc.pool_rows(),
        match svc.list() {
            dx_campaign::json::Json::Arr(a) => a.len(),
            _ => 0,
        }
    );
    println!("SIGTERM or Ctrl-C drains the fleet and checkpoints every tenant");
    svc.serve(listener)?;
    drop(api);
    println!("service drained");
    Ok(())
}

/// One request to a `deepxplore serve` daemon's API; errors carry the
/// HTTP status and the daemon's reason.
fn api_call(args: &Args, method: &str, path: &str, body: &str) -> Result<String, Box<dyn Error>> {
    let addr = args.get_or("api", "127.0.0.1:8787");
    let (status, body) = dx_telemetry::http::request(addr, method, path, body)?;
    if status != 200 {
        return Err(format!("HTTP {status}: {body}").into());
    }
    Ok(body)
}

/// `deepxplore submit`: start a campaign on a running service daemon.
pub fn submit(args: &Args) -> CmdResult {
    let name = args.get("name").ok_or("submit needs --name <campaign>")?;
    let mut spec = dx_service::CampaignSpec::named(name);
    spec.seed = args.get_num("rng", spec.seed)?;
    spec.seeds = args.get_num("seeds", spec.seeds)?;
    spec.seed_offset = args.get_num("seed-offset", spec.seed_offset)?;
    spec.max_steps = match args.get("steps") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("option --steps: cannot parse `{v}`"))?),
    };
    spec.target_coverage = parse_target_coverage(args)?;
    spec.quota = args.get_num("quota", spec.quota)?;
    spec.weight = args.get_num("weight", spec.weight)?;
    spec.metric = args.get("metric").map(str::to_string);
    spec.constraint = args.get("constraint").map(str::to_string);
    println!("{}", api_call(args, "POST", "/campaigns", &spec.to_json().to_string())?);
    Ok(())
}

/// `deepxplore status`: list campaigns, or show one (optionally as its
/// rendered report).
pub fn status(args: &Args) -> CmdResult {
    let body = match args.get("id") {
        None => api_call(args, "GET", "/campaigns", "")?,
        Some(id) if args.has("report") => {
            api_call(args, "GET", &format!("/campaigns/{id}/report"), "")?
        }
        Some(id) => api_call(args, "GET", &format!("/campaigns/{id}"), "")?,
    };
    println!("{}", body.trim_end());
    Ok(())
}

/// `deepxplore cancel`: cancel a service campaign.
pub fn cancel(args: &Args) -> CmdResult {
    let id = args.get("id").ok_or("cancel needs --id <campaign id>")?;
    println!("{}", api_call(args, "POST", &format!("/campaigns/{id}/cancel"), "")?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(v: &str) -> Result<Option<f32>, Box<dyn Error>> {
        let argv = ["campaign", "--target-coverage", v].map(String::from);
        parse_target_coverage(&Args::parse(&argv, &[]).unwrap())
    }

    #[test]
    fn target_coverage_is_a_fraction_in_the_half_open_unit_interval() {
        for bad in ["80", "0", "-0.1", "NaN"] {
            let err = target(bad).unwrap_err().to_string();
            assert!(err.contains("--target-coverage"), "{bad}: {err}");
        }
        assert_eq!(target("0.9").unwrap(), Some(0.9));
        assert_eq!(target("1").unwrap(), Some(1.0));
        let none = Args::parse(&["campaign".to_string()], &[]).unwrap();
        assert_eq!(parse_target_coverage(&none).unwrap(), None);
    }

    #[test]
    fn dist_workers_get_every_flag_the_suite_is_built_from() {
        let argv: Vec<String> = "dist --workers 2 --dataset pdf --full --preexisting \
                                 --metric multisection:4+boundary --constraint clip \
                                 --lambda1 2 --lambda2 0.5 --step 0.02 --max-iters 7 \
                                 --pick nearest --lease 3 --rng 9"
            .split_whitespace()
            .map(String::from)
            .collect();
        let parent = Args::parse(&argv, crate::SWITCHES).unwrap();
        let child = Args::parse(&worker_argv(&parent, "127.0.0.1:1"), crate::SWITCHES).unwrap();
        assert_eq!(child.command, "worker");
        assert_eq!(child.get("connect"), Some("127.0.0.1:1"));
        let hp = |a: &Args| format!("{:?}", hyperparams_for(a, DatasetKind::Pdf).unwrap());
        assert_eq!(hp(&child), hp(&parent));
        assert!(child.has("preexisting"));
        for flag in ["metric", "constraint", "dataset"] {
            assert_eq!(child.get(flag), parent.get(flag), "--{flag}");
        }
        assert!(child.has("full"));
        assert_eq!(child.get("lease"), Some("3"));
    }
}
