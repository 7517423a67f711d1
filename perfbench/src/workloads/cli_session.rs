//! `cli_session`: argv → rendered string through `cordoba_cli::run`, the
//! only workload that measures the CLI and `cordoba-soc` layers.
//!
//! One op is a fixed script: `dse` for the five tasks on four grids,
//! `provision` for four apps, `stacking`, `eliminate` over a generated
//! design CSV, and `replay` of a run stored in setup. Every op asserts
//! the paper-conformance lines and that the replay is byte-equal to the
//! stored run's output.
//
// cordoba-lint: allow-file(ambient-input) —
// setup writes the generated CSV into the run's own work directory, which
// the CLI under test then reads.

use super::{beta_traced, check, evaluate_one_traced, Workload};
use crate::gen::{design_csv, Rng};
use crate::trace::{stopwatch, Tracer};
use crate::{Fingerprint, Scale};
use cordoba::dse::log_sweep;
use cordoba::metrics::DesignPoint;
use cordoba::supervise::op_time_sweep_supervised;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::sim::simulate;
use cordoba_accel::{space, stacking};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::CarbonIntensity;
use cordoba_cli::commands::parse_design_csv;
use cordoba_par::Supervisor;
use cordoba_soc::apps::VrApp;
use cordoba_soc::provisioning::{sweep, Deployment};
use cordoba_store::{Store, StoreKey};
use cordoba_workloads::kernel::KernelId;
use cordoba_workloads::task::Task;
use std::path::Path;

/// Store kind of the CLI's run-level memo (`dse --store`).
const RUN_KIND: &str = "run";

const TASKS: [&str; 5] = ["all", "xr10", "ai10", "xr5", "ai5"];
const GRIDS: [&str; 4] = ["us", "world", "coal", "solar"];
const APPS: [&str; 4] = ["m1", "g2", "b1", "sg1"];

/// What a verb's library share is, for the traced split.
enum Library {
    Dse(Task, CarbonIntensity),
    Provision(VrApp),
    Stacking,
    Eliminate,
    Replay(StoreKey),
}

struct Verb {
    argv: Vec<String>,
    view: &'static str,
    library: Library,
}

pub struct CliSession {
    script: Vec<Verb>,
    csv: String,
    csv_rows: usize,
    store: Store,
    stored_output: String,
    seed_space: Vec<AcceleratorConfig>,
    model: EmbodiedModel,
    expected: u64,
}

fn argv(words: &[&str]) -> Vec<String> {
    words
        .iter()
        .map(|w| (*w).to_owned())
        .chain(["--threads".to_owned(), "1".to_owned()])
        .collect()
}

fn task(name: &str) -> Task {
    match name {
        "all" => Task::all_kernels(),
        "xr10" => Task::xr_10_kernels(),
        "ai10" => Task::ai_10_kernels(),
        "xr5" => Task::xr_5_kernels(),
        _ => Task::ai_5_kernels(),
    }
}

fn grid(name: &str) -> CarbonIntensity {
    match name {
        "us" => grids::US_AVERAGE,
        "world" => grids::WORLD_AVERAGE,
        "coal" => grids::COAL,
        _ => grids::SOLAR,
    }
}

fn app(name: &str) -> VrApp {
    match name {
        "m1" => VrApp::m1(),
        "g2" => VrApp::g2(),
        "b1" => VrApp::b1(),
        _ => VrApp::sg1(),
    }
}

fn run_cli(argv: &[String]) -> Result<String, String> {
    cordoba_cli::run(argv).map_err(|e| format!("`{}`: {e}", argv.join(" ")))
}

fn fingerprint(outputs: &[String]) -> u64 {
    let mut fp = Fingerprint::default();
    outputs.iter().for_each(|o| fp.bytes(o.as_bytes()));
    fp.finish()
}

fn require(output: &str, needle: &str, what: &str) -> Result<(), String> {
    if output.contains(needle) {
        Ok(())
    } else {
        Err(format!("{what}: output lacks `{needle}`"))
    }
}

impl CliSession {
    pub fn setup(seed: u64, scale: Scale, work: &Path) -> Result<Self, String> {
        let rows = match scale {
            Scale::Full => 20_000,
            Scale::Small => 300,
        };
        let mut rng = Rng::new(seed);
        let csv = design_csv(&mut rng, rows);
        let csv_path = work.join("designs.csv");
        std::fs::write(&csv_path, &csv).map_err(|e| e.to_string())?;
        let store_dir = work.join("store");
        let store = Store::open(&store_dir).map_err(|e| e.to_string())?;
        let store_arg = store_dir.to_str().ok_or("work directory is not UTF-8")?;
        let csv_arg = csv_path.to_str().ok_or("work directory is not UTF-8")?;

        let (stored_task, stored_grid) = (TASKS[rng.below(5)], GRIDS[rng.below(4)]);
        let stored_output = run_cli(&argv(&[
            "dse",
            "--task",
            stored_task,
            "--grid",
            stored_grid,
            "--store",
            store_arg,
        ]))?;
        let hash = stored_output
            .lines()
            .find_map(|l| l.strip_prefix("store: run "))
            .ok_or("stored dse run printed no hash")?
            .trim()
            .to_owned();
        let key = StoreKey::from_hex(&hash).ok_or("stored dse run printed a bad hash")?;

        let mut script = Vec::new();
        for t in TASKS {
            for g in GRIDS {
                script.push(Verb {
                    argv: argv(&["dse", "--task", t, "--grid", g]),
                    view: "cli.dse.ms",
                    library: Library::Dse(task(t), grid(g)),
                });
            }
        }
        for a in APPS {
            script.push(Verb {
                argv: argv(&["provision", "--app", a]),
                view: "cli.provision.ms",
                library: Library::Provision(app(a)),
            });
        }
        script.push(Verb {
            argv: argv(&["stacking"]),
            view: "cli.stacking.ms",
            library: Library::Stacking,
        });
        script.push(Verb {
            argv: argv(&["eliminate", "--csv", csv_arg]),
            view: "cli.eliminate.ms",
            library: Library::Eliminate,
        });
        script.push(Verb {
            argv: argv(&["replay", &hash, "--store", store_arg]),
            view: "cli.replay.ms",
            library: Library::Replay(key),
        });
        let mut workload = Self {
            script,
            csv,
            csv_rows: rows,
            store,
            stored_output,
            seed_space: space::design_space(),
            model: EmbodiedModel::default(),
            expected: 0,
        };
        let outputs = workload.plain()?;
        workload.conformance(&outputs)?;
        workload.expected = fingerprint(&outputs);
        Ok(workload)
    }

    fn plain(&self) -> Result<Vec<String>, String> {
        self.script.iter().map(|verb| run_cli(&verb.argv)).collect()
    }

    /// Runs each verb on the clock, then re-runs the library calls it
    /// wraps as probes; `cli.render.ms` gets the verb time they leave.
    fn traced(&self, t: &mut Tracer) -> Result<Vec<String>, String> {
        let mut outputs = Vec::with_capacity(self.script.len());
        for verb in &self.script {
            let (output, verb_ns) = stopwatch(|| run_cli(&verb.argv));
            outputs.push(output?);
            let (probe, library_ns) = t.probe(|t| self.library(&verb.library, t));
            probe?;
            t.add("cli.render.ms", verb_ns - library_ns);
            t.add(verb.view, verb_ns);
        }
        Ok(outputs)
    }

    /// The library calls one verb makes, through the same public entry
    /// points, each as a span of its layer.
    fn library(&self, library: &Library, t: &mut Tracer) -> Result<(), String> {
        match library {
            Library::Dse(task, ci) => {
                let points = evaluate_one_traced(&self.seed_space, task, &self.model, t)?;
                let counts = log_sweep(4, 11, 2);
                t.time("core.op_time_sweep.ms", || {
                    op_time_sweep_supervised(points, counts, *ci, &Supervisor::unbounded())
                })
                .map_err(|e| e.to_string())?;
            }
            Library::Provision(app) => {
                t.time("soc.provisioning.ms", || sweep(app, &Deployment::default()))
                    .map_err(|e| e.to_string())?;
            }
            Library::Stacking => {
                let kernel = KernelId::Sr512.descriptor();
                for cfg in stacking::study_configs() {
                    let (latency, energy) = t.time("accel.sim.ms", || {
                        let sim = simulate(&cfg, &kernel);
                        (
                            sim.latency,
                            sim.dynamic_energy + cfg.leakage_power() * sim.latency,
                        )
                    });
                    let embodied = t
                        .time("accel.embodied.ms", || cfg.embodied_carbon(&self.model))
                        .map_err(|e| e.to_string())?;
                    t.time("core.design_point.ms", || {
                        DesignPoint::new(cfg.name(), latency, energy, embodied, cfg.total_area())
                    })
                    .map_err(|e| e.to_string())?;
                }
            }
            Library::Eliminate => {
                let points = t
                    .time("cli.parse_csv.ms", || parse_design_csv(&self.csv))
                    .map_err(|e| e.to_string())?;
                let _ = beta_traced(&points, t);
            }
            Library::Replay(key) => {
                t.time("store.get.ms", || self.store.get(RUN_KIND, *key))
                    .ok_or("stored run vanished")?;
            }
        }
        Ok(())
    }

    /// The paper-conformance lines and the byte-equal replay.
    fn conformance(&self, outputs: &[String]) -> Result<(), String> {
        let output_of = |words: &[&str]| {
            let want = argv(words);
            self.script
                .iter()
                .position(|v| v.argv == want)
                .map(|i| outputs[i].as_str())
                .ok_or_else(|| format!("script lacks `{}`", words.join(" ")))
        };
        let all_us = output_of(&["dse", "--task", "all", "--grid", "us"])?;
        require(all_us, "(96.7% eliminated)", "dse --task all --grid us")?;
        let xr5_us = output_of(&["dse", "--task", "xr5", "--grid", "us"])?;
        require(xr5_us, "(97.5% eliminated)", "dse --task xr5 --grid us")?;
        let m1 = output_of(&["provision", "--app", "m1"])?;
        require(
            m1,
            "optimal: 4 cores (1.29x better than 8)",
            "provision --app m1",
        )?;
        let stacking = output_of(&["stacking"])?;
        if !stacking
            .lines()
            .any(|l| l.trim_start().starts_with("3D_2K_4M ") && l.ends_with("<== optimal"))
        {
            return Err("stacking: 3D_2K_4M is not the optimum".to_owned());
        }
        let replay = outputs.last().ok_or("empty script")?;
        if *replay != self.stored_output {
            return Err("replay output differs from the stored run's output".to_owned());
        }
        Ok(())
    }
}

impl Workload for CliSession {
    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        t.begin();
        let outputs = if t.on() { self.traced(t) } else { self.plain() };
        t.end();
        let outputs = outputs?;
        self.conformance(&outputs)?;
        check("cli_session", i, fingerprint(&outputs), self.expected)
    }

    fn reference(&self) -> u64 {
        self.expected
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("verbs_per_op", self.script.len()),
            ("csv_rows", self.csv_rows),
            ("dse_configs", self.seed_space.len()),
        ]
    }
}
