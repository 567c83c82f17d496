//! The served-pipeline benchmark: four seeded workloads run against the
//! in-process shard server, then replayed on the benchmark's own thread
//! with spans around every public call the shard makes.
//!
//! One invocation does the same work whatever it reports:
//!
//! 1. set-up, [`SETUP_REPEATS`] times over (input generation, server, shards,
//!    template warm-up); the median is `setup_s`;
//! 2. the untraced run: 2 client threads against 2 shards over
//!    in-memory transports, closed loop with pipelining window 1, for
//!    the requested number of seconds ([`served`]);
//! 3. the traced replay of the same inputs on this thread
//!    ([`traced`]), which also yields the reference framebuffers;
//! 4. the correctness gate: every final framebuffer of step 2 is
//!    compared byte for byte with the replay's ([`gate`]);
//! 5. the resident-memory probe in a child process ([`probe`]).
//!
//! `README.md` beside this crate explains the workloads and metrics.

#![forbid(unsafe_code)]

pub mod gate;
pub mod probe;
pub mod report;
pub mod served;
pub mod traced;

use atk_core::ScriptStep;
use atk_serve::Profile;

/// Client threads, shards and the most connections open at once, sized
/// to a 2-core host.
pub const CLIENTS: usize = 2;
/// Worker shards of the server under test.
pub const SHARDS: usize = 2;
/// Scenes the `admit` workload rotates over.
pub const ADMIT_SCENES: [&str; 5] = ["fig1", "fig2", "fig3", "fig4", "fig5"];

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 private `fig5` sessions typing.
    Typing,
    /// 2 private `fig3` sessions running the fuzzer's mixed profile.
    Mixed,
    /// 2 clients doing Hello → initial keyframe → goodbye over fig1–fig5.
    Admit,
    /// One shared `fig5` document per round, 1 writer and 1 watcher.
    Collab,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Typing,
        Workload::Mixed,
        Workload::Admit,
        Workload::Collab,
    ];

    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (typing|mixed|admit|collab)"))
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Typing => "typing",
            Workload::Mixed => "mixed",
            Workload::Admit => "admit",
            Workload::Collab => "collab",
        }
    }
}

/// How much work one run does: a wall-clock budget (the benchmark) or
/// a fixed number of rounds per client (the tests, whose counts must
/// repeat exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Start rounds until this many seconds have passed; a round in
    /// flight at the deadline still completes.
    Seconds(f64),
    /// Exactly this many rounds per client.
    Rounds(usize),
}

/// Sizes of the generated inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Scripts in the pool; client `c` cycles over entries `c, c+2, …`.
    pub scripts: usize,
    /// Steps per script (0 for `admit`).
    pub steps: usize,
}

impl Sizes {
    /// The benchmark's sizes: enough distinct scripts that a seed's
    /// luck averages out, short enough that the traced replay of the
    /// whole pool takes a few seconds.
    pub fn standard(w: Workload) -> Sizes {
        match w {
            Workload::Typing => Sizes {
                scripts: 4,
                steps: 320,
            },
            Workload::Mixed => Sizes {
                scripts: 24,
                steps: 200,
            },
            Workload::Admit => Sizes {
                scripts: 2 * ADMIT_SCENES.len(),
                steps: 0,
            },
            Workload::Collab => Sizes {
                scripts: 12,
                steps: 200,
            },
        }
    }
}

/// One entry of the input pool: a scene and the steps one session (or,
/// on `collab`, the writer of one shared document) sends into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Scene the session opens.
    pub scene: String,
    /// Steps, each sent and answered before the next (window 1).
    pub steps: Vec<ScriptStep>,
}

/// Everything a run sends, generated from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The script pool.
    pub scripts: Vec<Script>,
}

impl Inputs {
    /// Generates the pool with the repository's public generators:
    /// `atk_serve::loadgen::client_script` for private sessions and
    /// `atk_check::gen::interleaved_script` for the shared document.
    pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Result<Inputs, String> {
        let mut scripts = Vec::with_capacity(sizes.scripts);
        for k in 0..sizes.scripts {
            let s = mix(seed, k as u64);
            let script = match workload {
                Workload::Typing => Script {
                    scene: "fig5".into(),
                    steps: atk_serve::loadgen::client_script(
                        Profile::Typing,
                        "fig5",
                        s,
                        sizes.steps,
                    )?,
                },
                Workload::Mixed => Script {
                    scene: "fig3".into(),
                    steps: atk_serve::loadgen::client_script(
                        Profile::Mixed,
                        "fig3",
                        s,
                        sizes.steps,
                    )?,
                },
                Workload::Admit => Script {
                    // Every scene twice per pool, in a seeded order.
                    scene: String::new(),
                    steps: Vec::new(),
                },
                Workload::Collab => Script {
                    scene: "fig5".into(),
                    steps: atk_check::gen::interleaved_script("fig5", s, 1, sizes.steps)?
                        .into_iter()
                        .map(|(_, step)| step)
                        .collect(),
                },
            };
            scripts.push(script);
        }
        if workload == Workload::Admit {
            let mut order: Vec<usize> = (0..sizes.scripts).collect();
            let mut state = mix(seed, u64::MAX);
            for i in (1..order.len()).rev() {
                state = mix(state, i as u64);
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            for (script, k) in scripts.iter_mut().zip(order) {
                script.scene = ADMIT_SCENES[k % ADMIT_SCENES.len()].into();
            }
        }
        Ok(Inputs { workload, scripts })
    }

    /// Distinct scenes the pool opens, in first-use order (the
    /// templates set-up warms on every shard).
    pub fn scenes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.scripts {
            if !out.contains(&s.scene.as_str()) {
                out.push(&s.scene);
            }
        }
        out
    }

    /// Pool entries client `c` cycles over.
    pub fn share(&self, c: usize) -> Vec<usize> {
        let own: Vec<usize> = (c..self.scripts.len()).step_by(CLIENTS).collect();
        if own.is_empty() {
            (0..self.scripts.len()).collect()
        } else {
            own
        }
    }
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Everything one run measured.
pub struct Outcome {
    /// The inputs both phases sent.
    pub inputs: Inputs,
    /// Seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// The untraced run; its `lost` includes every gate failure.
    pub served: served::Served,
    /// The traced replay.
    pub replay: traced::Replay,
    /// The gate's comparison of the untraced run with the replay.
    pub verdict: gate::Verdict,
}

impl Outcome {
    /// True when the gate compared at least one framebuffer and no op
    /// failed.
    pub fn correct(&self) -> bool {
        self.verdict.compared > 0 && self.served.failed() == 0
    }
}

/// Sets up [`SETUP_REPEATS`] times, runs the untraced clients on the
/// last set-up for `budget`, replays the same inputs traced, and gates
/// the untraced finals on the replay. `plant` may alter the untraced
/// finals before the gate (the tests plant a wrong pixel).
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Budget,
    sizes: Sizes,
    plant: impl FnOnce(&mut served::Served),
) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        // Stop the previous set-up's shards before timing the next.
        drop(ready.take());
        let started = std::time::Instant::now();
        ready = Some(served::setup(workload, seed, sizes)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = ready.expect("at least one set-up");
    let mut served = served::run(&setup, budget)?;
    let replay = traced::replay(&setup.inputs)?;
    plant(&mut served);
    let verdict = gate::check(&served.finals, &replay.refs);
    served.lost += verdict.mismatches + served.repeat_mismatches + replay.mismatches;
    let inputs = setup.inputs.clone();
    Ok(Outcome {
        inputs,
        setup_s,
        served,
        replay,
        verdict,
    })
}

/// SplitMix64 of `seed` and `k`: per-script seeds that differ in every
/// bit for neighbouring run seeds.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
