//! `train` — a small training CLI on the public API.
//!
//! Mirrors the DeepSpeed usability model: training behaviour comes from a
//! JSON config file (all fields optional), the loop itself is unchanged
//! user code. Supports checkpoint save/resume through the engine's framed
//! binary checkpoint file (DESIGN §9): `--save` writes one when the run
//! ends, `--resume` continues from one and refuses a torn, foreign or
//! older-version file with a typed error.
//!
//! ```text
//! train [--config cfg.json] [--steps N] [--batch B] [--layers L]
//!       [--hidden H] [--save run.ckpt] [--resume run.ckpt] [--ckpt-acts]
//! ```

use std::process::ExitCode;

use zero_offload::{ZeroOffloadConfig, ZeroOffloadEngine};
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel};
use zo_optim::LossScaleConfig;

struct Args {
    config: Option<String>,
    steps: usize,
    batch: usize,
    layers: usize,
    hidden: usize,
    save: Option<String>,
    resume: Option<String>,
    checkpoint_activations: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: None,
        steps: 200,
        batch: 8,
        layers: 2,
        hidden: 32,
        save: None,
        resume: None,
        checkpoint_activations: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--config" => args.config = Some(value("--config")?),
            "--steps" => {
                args.steps = value("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--batch" => {
                args.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--layers" => {
                args.layers = value("--layers")?
                    .parse()
                    .map_err(|e| format!("--layers: {e}"))?
            }
            "--hidden" => {
                args.hidden = value("--hidden")?
                    .parse()
                    .map_err(|e| format!("--hidden: {e}"))?
            }
            "--save" => args.save = Some(value("--save")?),
            "--resume" => args.resume = Some(value("--resume")?),
            "--ckpt-acts" => args.checkpoint_activations = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Engine config from JSON (every field optional), like ds_config.json.
    let mut cfg = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            ZeroOffloadConfig::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?
        }
        None => ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            ..ZeroOffloadConfig::default()
        },
    };
    if cfg.adam.lr == zo_optim::AdamParams::default().lr && args.config.is_none() {
        cfg.adam.lr = 3e-3;
    }

    let gpt = GptConfig {
        vocab: 64,
        seq_len: 32,
        hidden: args.hidden,
        heads: (args.hidden / 16).max(1),
        layers: args.layers,
    };
    let mut model = GptModel::new(gpt, 42);
    model.set_activation_checkpointing(args.checkpoint_activations);
    let mut engine = ZeroOffloadEngine::new(model, cfg);

    if let Some(path) = &args.resume {
        engine
            .restore_checkpoint_file(path)
            .map_err(|e| format!("restoring {path}: {e}"))?;
        eprintln!(
            "resumed from {path} at step {}",
            engine.stats().steps_applied
        );
    }

    let start_step = engine.stats().steps_applied as usize;
    let mut data = BigramLm::new(gpt.vocab, 0.05, 7);
    // Replay the data stream up to the resume point for continuity.
    for _ in 0..start_step {
        data.batch(args.batch, gpt.seq_len);
    }

    println!("config:\n{}", engine_config_summary(&args));
    for step in start_step..start_step + args.steps {
        let b = data.batch(args.batch, gpt.seq_len);
        let out = engine
            .step(|m| m.train_step(&b.inputs, &b.targets, args.batch, gpt.seq_len, |_| {}))
            .map_err(|e| format!("step {step}: {e}"))?;
        if step % 20 == 0 || step + 1 == start_step + args.steps {
            println!(
                "step {:>5}  loss {:.4}  scale {:>8}",
                step,
                out.loss(),
                engine.loss_scale()
            );
        }
    }

    let s = engine.stats();
    println!(
        "\n{} steps applied, {} skipped; PCIe: {} B down ({} frames, {} B on the wire), {} B up",
        s.steps_applied, s.steps_skipped, s.d2h_bytes, s.frames, s.wire_bytes, s.h2d_bytes
    );

    if let Some(path) = &args.save {
        engine
            .save_checkpoint_file(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("checkpoint saved to {path}");
    }
    Ok(())
}

fn engine_config_summary(args: &Args) -> String {
    format!(
        "  model: {} layers x hidden {}, batch {}, activation checkpointing {}",
        args.layers, args.hidden, args.batch, args.checkpoint_activations
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
