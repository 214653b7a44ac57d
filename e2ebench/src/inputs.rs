//! Seeded inputs: the twelve suite programs, their rule sets, the
//! reference outputs, and the request draw.
//!
//! Seed 0 is the repository's own suite (`suite(Scale::full())`); any
//! other seed regenerates every program with the seed mixed into its
//! `Benchmark::seed()`, so a claim can be re-checked on programs nobody
//! tuned against.

use crate::spans::Tracer;
use pdbt_bench::Experiment;
use pdbt_core::derive::{derive, DeriveConfig, DeriveStats};
use pdbt_core::learning::{learn_into, LearnConfig};
use pdbt_core::RuleSet;
use pdbt_isa::Control;
use pdbt_isa_arm::INST_SIZE;
use pdbt_runtime::{BackendKind, EngineConfig};
use pdbt_symexec::CheckOptions;
use pdbt_workloads::{
    generate, run_reference, Benchmark, Scale, Workload, DATA_BASE, DATA_SIZE, STACK_BASE,
    STACK_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How far a regenerated program may stray from the suite program in
/// dynamic length (guest instructions the reference interpreter
/// retires) and in footprint (distinct instructions it executes, which
/// sets how much gets translated). Without it one seed's `gcc` retires
/// 0.9M instructions and another's 18M, and the seed, not the code
/// under test, would decide every timing.
const SHAPE_BAND: f64 = 0.05;

/// Regeneration attempts per program before a seed is refused.
const MAX_ATTEMPTS: u64 = 4096;

/// Attempts tried at once (the reference machine has two cores).
const SEARCH_THREADS: usize = 2;

/// The generator seed of `bench` under workload seed `seed`: the
/// suite's own seed for 0, otherwise that seed mixed with `seed` and
/// the regeneration `attempt`.
#[must_use]
fn program_seed(bench: Benchmark, seed: u64, attempt: u64) -> u64 {
    if seed == 0 {
        bench.seed()
    } else {
        bench.seed() ^ splitmix64(seed ^ (attempt << 48))
    }
}

/// Builds one program exactly as `pdbt_workloads::build` does, but
/// from generator seed `gen_seed`.
///
/// # Errors
///
/// When the generated program does not compile.
fn build_one(bench: Benchmark, gen_seed: u64) -> Result<Workload, String> {
    let profile = bench.profile();
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let src = generate(&profile, Scale::full().statements(bench), &mut rng);
    let pair = pdbt_compiler::compile_pair(&src, 0x1000)
        .map_err(|e| format!("{} ({gen_seed:#x}) does not compile: {e}", bench.name()))?;
    let accurate = pdbt_compiler::build_debug_map(&pair.guest, &pair.host);
    let debug = pdbt_compiler::degrade(&accurate, profile.degrade, &mut rng);
    Ok(Workload {
        bench,
        pair,
        debug,
        statements: src.statement_count(),
    })
}

/// The shape of a program's reference run: `(dynamic length,
/// footprint)`, or `None` when it does not halt within `budget`
/// instructions.
fn shape(w: &Workload, budget: u64) -> Option<(u64, u64)> {
    let prog = &w.pair.guest.program;
    let mut cpu = pdbt_isa_arm::Cpu::new();
    cpu.mem.map(DATA_BASE, DATA_SIZE);
    cpu.mem.map(STACK_BASE, STACK_SIZE);
    cpu.write(pdbt_isa_arm::Reg::Sp, STACK_BASE + STACK_SIZE);
    cpu.set_pc(prog.base());
    let mut seen = vec![false; prog.len()];
    let (mut executed, mut footprint) = (0u64, 0u64);
    while executed < budget {
        let pc = cpu.pc();
        let inst = prog.fetch(pc).ok()?;
        let slot = &mut seen[((pc - prog.base()) / INST_SIZE) as usize];
        footprint += u64::from(!*slot);
        *slot = true;
        executed += 1;
        match pdbt_isa_arm::step(&mut cpu, inst).ok()? {
            Control::Next => cpu.set_pc(pc + INST_SIZE),
            Control::Jump(t) | Control::Call { target: t, .. } => cpu.set_pc(t),
            Control::Halt => return Some((executed, footprint)),
        }
    }
    None
}

fn within_band(got: u64, want: u64) -> bool {
    (got as f64 / want as f64 - 1.0).abs() <= SHAPE_BAND
}

/// Chooses the generator seed of every program for workload seed
/// `seed`: seed 0 keeps the suite's; any other seed takes, per program,
/// the first attempt whose shape lies within [`SHAPE_BAND`] of the
/// suite program's. Benchmark-side input selection, never part of
/// set-up time.
///
/// # Errors
///
/// When a program has no attempt within the band, or does not compile.
pub fn choose_seeds(seed: u64) -> Result<Vec<u64>, String> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            if seed == 0 {
                return Ok(b.seed());
            }
            let suite = build_one(b, b.seed())?;
            let (len, foot) = shape(&suite, u64::MAX).ok_or("suite program does not halt")?;
            let budget = (len as f64 * (1.0 + SHAPE_BAND)) as u64;
            let fits = |attempt: u64| -> Result<Option<u64>, String> {
                let gen_seed = program_seed(b, seed, attempt);
                let w = build_one(b, gen_seed)?;
                let ok = shape(&w, budget)
                    .is_some_and(|(l, f)| within_band(l, len) && within_band(f, foot));
                Ok(ok.then_some(gen_seed))
            };
            // Attempts are tried `SEARCH_THREADS` at a time; the lowest
            // fitting attempt wins, so the choice does not depend on
            // thread timing.
            for round in (0..MAX_ATTEMPTS).step_by(SEARCH_THREADS) {
                let found = std::thread::scope(|scope| {
                    let tries: Vec<_> = (round..round + SEARCH_THREADS as u64)
                        .map(|attempt| scope.spawn(move || fits(attempt)))
                        .collect();
                    tries
                        .into_iter()
                        .map(|t| t.join().expect("a seed search thread panicked"))
                        .collect::<Result<Vec<_>, _>>()
                })?;
                if let Some(gen_seed) = found.into_iter().flatten().next() {
                    return Ok(gen_seed);
                }
            }
            Err(format!(
                "{}: no program within {SHAPE_BAND} of {len} guest instructions and a \
                 footprint of {foot} for seed {seed}",
                b.name()
            ))
        })
        .collect()
}

/// Builds the twelve programs from their generator seeds, one
/// `workloads.build` span each.
///
/// # Errors
///
/// When a program does not compile.
pub fn build_suite(gen_seeds: &[u64], tracer: &Tracer, unit: u64) -> Result<Vec<Workload>, String> {
    Benchmark::ALL
        .iter()
        .zip(gen_seeds)
        .map(|(&b, &s)| tracer.time("workloads.build", unit, None, |_| build_one(b, s)))
        .collect()
}

/// Checks that seed 0 rebuilt the repository's suite: every program's
/// fingerprint equals `suite(Scale::full())`'s.
///
/// # Errors
///
/// Names the first program whose fingerprint differs.
pub fn check_seed0_fingerprints(suite: &[Workload]) -> Result<(), String> {
    for (w, r) in suite.iter().zip(pdbt_workloads::suite(Scale::full())) {
        let (got, want) = (
            w.pair.guest.program.fingerprint(),
            r.pair.guest.program.fingerprint(),
        );
        if w.bench != r.bench || got != want {
            return Err(format!(
                "seed 0 {} fingerprint {got:016x} != suite {want:016x}",
                w.bench.name()
            ));
        }
    }
    Ok(())
}

/// Learns each program's rules on its own (one `core.learn` span
/// each), as the paper's §V-A setup does before leave-one-out merging.
#[must_use]
pub fn learn(suite: Vec<Workload>, tracer: &Tracer, unit: u64) -> Experiment {
    let mut per_rules = Vec::with_capacity(suite.len());
    let mut funnels = Vec::with_capacity(suite.len());
    for w in &suite {
        let mut rules = RuleSet::new();
        let stats = tracer.time("core.learn", unit, None, |_| {
            learn_into(&mut rules, &w.pair, &w.debug, LearnConfig::default())
        });
        funnels.push((w.bench, stats));
        per_rules.push(rules);
    }
    Experiment {
        suite,
        per_rules,
        funnels,
    }
}

/// Derived and rejected candidate counts summed over derivations.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeriveTally {
    pub derived: u64,
    pub rejected: u64,
}

impl DeriveTally {
    fn add(&mut self, s: &DeriveStats) {
        self.derived += s.derived as u64;
        self.rejected += s.rejected as u64;
    }

    /// `derived / (derived + rejected)`.
    #[must_use]
    pub fn accept_ratio(&self) -> f64 {
        crate::stats::ratio(self.derived as f64, (self.derived + self.rejected) as f64)
    }
}

/// Each program's leave-one-out `para` rule set: exactly
/// `Experiment::rules_for(Config::Para, bench)` (merge the other
/// eleven, then derive with the full configuration), called through
/// `derive` so the derivation statistics are kept. One `core.derive`
/// span per program.
#[must_use]
fn para_rules(exp: &Experiment, tracer: &Tracer, unit: u64) -> (Vec<RuleSet>, DeriveTally) {
    let mut tally = DeriveTally::default();
    let sets = exp
        .suite
        .iter()
        .map(|w| {
            let learned = exp.learned_excluding(w.bench);
            let (rules, stats) = tracer.time("core.derive", unit, None, |_| {
                derive(&learned, DeriveConfig::full(), CheckOptions::default())
            });
            tally.add(&stats);
            rules
        })
        .collect();
    (sets, tally)
}

/// The engine configuration every workload runs: one thread, the
/// threaded backend, chaining and superblocks on (the shipped
/// defaults, with the backend pinned so `PDBT_BACKEND` cannot move it).
#[must_use]
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        jobs: 1,
        backend: BackendKind::Threaded,
        chaining: true,
        traces: true,
        ..EngineConfig::default()
    }
}

/// Build, learn and derive: the set-up `cold-para` and `artifact-boot`
/// share.
///
/// # Errors
///
/// When a program does not compile.
pub fn para_setup(
    gen_seeds: &[u64],
    tracer: &Tracer,
    unit: u64,
) -> Result<(Experiment, Vec<RuleSet>, DeriveTally), String> {
    let exp = learn(build_suite(gen_seeds, tracer, unit)?, tracer, unit);
    let (rules, tally) = para_rules(&exp, tracer, unit);
    Ok((exp, rules, tally))
}

/// Reference-interpreter output of every program (the oracle; never
/// part of set-up time).
///
/// # Errors
///
/// When the reference interpreter faults on a program.
pub fn reference_outputs(suite: &[Workload]) -> Result<Vec<Vec<u32>>, String> {
    suite
        .iter()
        .map(|w| run_reference(w).map_err(|e| format!("{} reference run: {e}", w.bench.name())))
        .collect()
}

/// Times the reference interpreter on every program, one after
/// another, in milliseconds: the denominator of the ROADMAP headline,
/// reported as context and never gated.
#[must_use]
pub fn reference_probe(suite: &[Workload]) -> Vec<f64> {
    suite
        .iter()
        .map(|w| {
            let t = std::time::Instant::now();
            std::hint::black_box(run_reference(w).ok());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The 1/rank weight of each program in the request draw, in
/// `Benchmark::ALL` order: rank 1 is `perlbench`, rank 3 `gcc`, rank 12
/// `xalancbmk`. The order is the suite's own, fixed before anything was
/// measured. It is a traffic assumption, not taken from real traffic.
#[must_use]
pub fn zipf_weights() -> Vec<f64> {
    (1..=Benchmark::ALL.len()).map(|r| 1.0 / r as f64).collect()
}

/// `n` request draws, as indices into `Benchmark::ALL`: independent,
/// each from [`zipf_weights`], from one generator seeded from `seed`.
/// Bursts of heavy requests happen as they would under that mix. A
/// pure function of the seed.
#[must_use]
pub fn zipf_draw(seed: u64, n: usize) -> Vec<usize> {
    let weights = zipf_weights();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x7a1f_d2a7));
    (0..n)
        .map(|_| {
            let mut x = rng.gen::<f64>() * total;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    return i;
                }
                x -= w;
            }
            weights.len() - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed0_reproduces_suite_fingerprints() {
        let t = Tracer::new(false);
        let seeds = choose_seeds(0).unwrap();
        let suite = build_suite(&seeds, &t, 0).unwrap();
        check_seed0_fingerprints(&suite).unwrap();
        // Another seed gives other programs of about the same length.
        let other = build_suite(&choose_seeds(7).unwrap(), &t, 0).unwrap();
        assert!(check_seed0_fingerprints(&other).is_err());
        for (a, b) in suite.iter().zip(&other) {
            assert_ne!(
                a.pair.guest.program.fingerprint(),
                b.pair.guest.program.fingerprint()
            );
            let ((la, fa), (lb, fb)) = (shape(a, u64::MAX).unwrap(), shape(b, u64::MAX).unwrap());
            assert!(
                within_band(lb, la) && within_band(fb, fa),
                "{la}/{fa} vs {lb}/{fb}"
            );
        }
    }

    #[test]
    fn seeded_programs_are_deterministic() {
        assert_eq!(choose_seeds(3).unwrap(), choose_seeds(3).unwrap());
        let s = program_seed(Benchmark::Mcf, 3, 0);
        let a = build_one(Benchmark::Mcf, s).unwrap();
        let b = build_one(Benchmark::Mcf, s).unwrap();
        assert_eq!(
            a.pair.guest.program.fingerprint(),
            b.pair.guest.program.fingerprint()
        );
        assert_eq!(a.debug, b.debug);
        // Attempt 0 is the seed mixed into `Benchmark::seed()` alone.
        assert_ne!(
            program_seed(Benchmark::Mcf, 3, 0),
            program_seed(Benchmark::Mcf, 3, 1)
        );
        assert_eq!(program_seed(Benchmark::Mcf, 0, 5), Benchmark::Mcf.seed());
    }

    #[test]
    fn zipf_draw_is_a_pure_function_of_the_seed() {
        assert_eq!(zipf_draw(5, 2000), zipf_draw(5, 2000));
        assert_ne!(zipf_draw(5, 2000), zipf_draw(6, 2000));
        // A longer draw extends a shorter one.
        assert_eq!(zipf_draw(5, 2000)[..100], zipf_draw(5, 100)[..]);
        // Over many draws each program's share is close to its 1/rank
        // weight: rank 1 (perlbench) about 32%, rank 12 about 2.7%.
        let n = 200_000;
        let d = zipf_draw(1, n);
        let w = zipf_weights();
        let total: f64 = w.iter().sum();
        for (i, wi) in w.iter().enumerate() {
            let share = d.iter().filter(|&&x| x == i).count() as f64 / n as f64;
            assert!(
                (share - wi / total).abs() < 0.005,
                "rank {}: {share}",
                i + 1
            );
        }
        assert_eq!(Benchmark::ALL[0], Benchmark::Perlbench);
    }
}
