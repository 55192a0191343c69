//! One run of the evaluation matrix and the one grammar that describes
//! it. A [`RunSpec`] is a target (built-in workload or kernel source),
//! compile options, a machine and seeds; [`RunSpec::parse`] builds one
//! from `(key, value)` text pairs, each key a row of one table ([`Key`]),
//! and [`RunSpec::apply`] amends one with the same keys. The command line
//! and `/v1/eval` are adapters over it, [`Engine::run`](crate::Engine::run)
//! executes it, and a [`Grid`](crate::Grid) crosses runs with key values.
//! `docs/SERVING.md` lists the keys with both spellings.

use crate::{DivergencePattern, Workload};
use simt_ir::{parse_and_link, verify_module, FuncKind, Module, Value};
use simt_sim::{Launch, MemHierarchy, ReconvergenceModel, SchedulerPolicy, SimConfig};
use specrecon_core::{CompileOptions, DeconflictMode, DetectOptions, RepairStrategy};
use std::fmt;

/// Seeds one spec may run, as a count or as the width of a range. A
/// resource guard, not an engine limit: the engine chunks wide ranges.
pub const MAX_SEEDS: u64 = 400;

/// Which seeds a spec runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seeds {
    /// `n` scalar launches at seeds `launch.seed + i` (wrapping).
    Count(u64),
    /// The half-open range `[lo, hi)`, stepped as lockstep cohorts.
    Range(u64, u64),
}

/// One run: target, compile options, machine and seeds.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// What to run; its launch carries the warps, seed and memory.
    pub workload: Workload,
    /// Compile options; `None` runs the module as it is.
    pub compile: Option<CompileOptions>,
    /// The machine.
    pub cfg: SimConfig,
    /// The seeds.
    pub seeds: Seeds,
}

/// A key of the grammar. Keys apply in the order of the key table:
/// target, then launch, compile and machine keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Key {
    /// A built-in workload by name.
    Workload,
    /// Kernel source text.
    Kernel,
    /// The kernel to launch (kernel source only; default: the first).
    Entry,
    /// Zeroed global memory cells (kernel source only; default 1024).
    Mem,
    /// Warps (default: the workload's, 4 for kernel source).
    Warps,
    /// The launch seed.
    Seed,
    /// A count or a range of seeds.
    Seeds,
    /// Soft-barrier threshold of every prediction.
    Threshold,
    /// `baseline` | `speculative` | `auto`.
    Mode,
    /// A divergence-repair strategy; overrides `mode`.
    Repair,
    /// `dynamic` | `static` deconfliction.
    Deconflict,
    /// Barrier register allocation.
    BarrierAlloc,
    /// The warp scheduler's policy.
    Policy,
    /// The memory-hierarchy cost model.
    MemHier,
    /// The hardware reconvergence model.
    ReconModel,
}

/// How a key's value is written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Text.
    Str,
    /// An unsigned integer in `min..=max`, decimal or `0x` hex.
    Uint {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// `true` or `false`.
    Bool,
    /// A count `N` in `1..=MAX_SEEDS`, or a half-open range `LO..HI`
    /// with `LO < HI` at most [`MAX_SEEDS`] wide.
    Seeds,
}

/// The key table, in order of application: each key's name (the JSON
/// field; the flag is `--` plus the name with `-` for `_`), kind, and the
/// value it takes when absent, if the absence is itself spelled.
const TABLE: [(Key, &str, Kind, Option<&str>); 15] = [
    (Key::Workload, "workload", Kind::Str, None),
    (Key::Kernel, "kernel", Kind::Str, None),
    (Key::Entry, "entry", Kind::Str, None),
    (Key::Mem, "mem", Kind::Uint { min: 0, max: 1 << 22 }, None),
    (Key::Warps, "warps", Kind::Uint { min: 1, max: 4096 }, None),
    (Key::Seed, "seed", Kind::Uint { min: 0, max: u64::MAX }, None),
    (Key::Seeds, "seeds", Kind::Seeds, None),
    (Key::Threshold, "threshold", Kind::Uint { min: 0, max: u32::MAX as u64 }, None),
    (Key::Mode, "mode", Kind::Str, Some("speculative")),
    (Key::Repair, "repair", Kind::Str, None),
    (Key::Deconflict, "deconflict", Kind::Str, None),
    (Key::BarrierAlloc, "barrier_alloc", Kind::Bool, None),
    (Key::Policy, "policy", Kind::Str, Some("greedy")),
    (Key::MemHier, "mem_hier", Kind::Str, None),
    (Key::ReconModel, "recon_model", Kind::Str, None),
];

impl Key {
    /// Every key, in order of application.
    pub fn all() -> impl Iterator<Item = Key> {
        TABLE.iter().map(|row| row.0)
    }

    pub(crate) fn named(name: &str) -> Option<Key> {
        TABLE.iter().find(|row| row.1 == name).map(|row| row.0)
    }

    /// Whether the key names what to run, which only [`RunSpec::parse`]
    /// takes: the table's first rows.
    fn is_target(self) -> bool {
        self as usize <= Key::Mem as usize
    }

    /// Whether the key sets the compile options or the module's
    /// predictions, and so never changes what a correct kernel computes.
    pub(crate) fn is_compile(self) -> bool {
        (Key::Threshold as usize..=Key::BarrierAlloc as usize).contains(&(self as usize))
    }

    /// The key's name, as `/v1/eval` spells it.
    pub fn name(self) -> &'static str {
        TABLE[self as usize].1
    }

    /// How the key's value is written.
    pub fn kind(self) -> Kind {
        TABLE[self as usize].2
    }

    /// The value an absent key takes, where it has one to echo.
    pub fn default_value(self) -> Option<&'static str> {
        TABLE[self as usize].3
    }

    fn err(self, reason: impl Into<String>) -> SpecError {
        SpecError { key: Some(self.name().to_string()), reason: reason.into() }
    }
}

/// Whether `name` is a value of `mode` (the command line takes
/// `--baseline` for `--mode baseline`).
pub fn is_mode(name: &str) -> bool {
    compile_mode(name).is_some()
}

fn compile_mode(name: &str) -> Option<CompileOptions> {
    match name {
        "baseline" => Some(CompileOptions::baseline()),
        "speculative" => Some(CompileOptions::speculative()),
        "auto" => Some(CompileOptions::automatic(DetectOptions::default())),
        _ => None,
    }
}

/// A rejected spec: the key at fault, as given, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The key, as given; `None` when the spec names no target at all.
    pub key: Option<String>,
    /// What is wrong.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.key {
            Some(key) => write!(f, "`{key}`: {}", self.reason),
            None => f.write_str(&self.reason),
        }
    }
}

impl std::error::Error for SpecError {}

/// The value given for each key, by [`Key`] index.
struct Given<'a>([Option<&'a str>; TABLE.len()]);

impl<'a> Given<'a> {
    /// Each key's value, the last one where a key repeats.
    fn new<K: AsRef<str>, V: AsRef<str>>(pairs: &'a [(K, V)]) -> Result<Given<'a>, SpecError> {
        let mut given = Given([None; TABLE.len()]);
        for (key, value) in pairs {
            let (key, value) = (key.as_ref(), value.as_ref());
            let unknown = || SpecError { key: Some(key.into()), reason: "unknown option".into() };
            given.0[Key::named(key).ok_or_else(unknown)? as usize] = Some(value);
        }
        Ok(given)
    }

    /// Every absent key at its default value, where it has one.
    fn defaulted(mut self) -> Self {
        for key in Key::all() {
            self.0[key as usize] = self.0[key as usize].or(key.default_value());
        }
        self
    }

    /// The first key given that `pick` selects.
    fn any(&self, pick: impl Fn(Key) -> bool) -> Option<Key> {
        Key::all().find(|&k| self.0[k as usize].is_some() && pick(k))
    }

    fn text(&self, key: Key) -> Option<&'a str> {
        self.0[key as usize]
    }

    fn uint(&self, key: Key) -> Result<Option<u64>, SpecError> {
        let Some(text) = self.text(key) else { return Ok(None) };
        let Kind::Uint { min, max } = key.kind() else { unreachable!("{key:?} is not a number") };
        let n = number(text).ok_or_else(|| key.err(format!("expects a number, got `{text}`")))?;
        if !(min..=max).contains(&n) {
            return Err(key.err(format!("must be in {min}..={max}, got {n}")));
        }
        Ok(Some(n))
    }

    fn seeds(&self) -> Result<Option<Seeds>, SpecError> {
        let Some(text) = self.text(Key::Seeds) else { return Ok(None) };
        let seed = |v: &str| {
            number(v).ok_or_else(|| Key::Seeds.err(format!("bad seed `{v}` (expect N or LO..HI)")))
        };
        let (seeds, n) = match text.split_once("..") {
            None => {
                let n = seed(text)?;
                (Seeds::Count(n), n)
            }
            Some((lo, hi)) => {
                let (lo, hi) = (seed(lo)?, seed(hi)?);
                if lo >= hi {
                    return Err(
                        Key::Seeds.err(format!("range {lo}..{hi} is empty (LO must be below HI)"))
                    );
                }
                (Seeds::Range(lo, hi), hi - lo)
            }
        };
        if !(1..=MAX_SEEDS).contains(&n) {
            return Err(Key::Seeds.err(format!("must run 1..={MAX_SEEDS} seeds, got {n}")));
        }
        Ok(Some(seeds))
    }

    /// The target keys: what to run, at its default launch.
    fn target(&self) -> Result<Workload, SpecError> {
        match (self.text(Key::Workload), self.text(Key::Kernel)) {
            (Some(_), Some(_)) => {
                Err(Key::Workload.err("give a workload name or kernel source, not both"))
            }
            (None, None) => {
                let reason = "missing `workload` (name) or `kernel` (source)".into();
                Err(SpecError { key: None, reason })
            }
            (Some(name), None) => named(name, self),
            (None, Some(src)) => inline(src, self),
        }
    }

    /// Every other key, in table order: each one given replaces what
    /// `spec` had for it, and each one not given leaves it.
    fn apply(&self, spec: &mut RunSpec) -> Result<(), SpecError> {
        let launch = &mut spec.workload.launch;
        if let Some(warps) = self.uint(Key::Warps)? {
            launch.num_warps = warps as usize;
        }
        if let Some(seed) = self.uint(Key::Seed)? {
            launch.seed = seed;
        }
        if let Some(seeds) = self.seeds()? {
            spec.seeds = seeds;
        }
        match spec.compile.as_mut() {
            Some(opts) => self.compile(&mut spec.workload.module, opts)?,
            None => {
                if let Some(key) = self.any(Key::is_compile) {
                    return Err(key.err("the spec runs its module as it is"));
                }
            }
        }

        let cfg = &mut spec.cfg;
        if let Some(policy) = self.text(Key::Policy) {
            cfg.scheduler = SchedulerPolicy::parse(policy).map_err(|e| Key::Policy.err(e))?;
        }
        if let Some(text) = self.text(Key::MemHier) {
            let hier = MemHierarchy::parse(text, &cfg.latency).map_err(|e| Key::MemHier.err(e))?;
            cfg.mem = Some(hier);
        }
        if let Some(text) = self.text(Key::ReconModel) {
            cfg.recon = ReconvergenceModel::parse(text).map_err(|e| Key::ReconModel.err(e))?;
        }
        Ok(())
    }

    /// The compile keys: `threshold` set in `module`, `opts` amended
    /// (`mode` and `repair` replace them).
    fn compile(&self, module: &mut Module, opts: &mut CompileOptions) -> Result<(), SpecError> {
        if let Some(t) = self.uint(Key::Threshold)? {
            set_threshold(module, t as u32);
        }
        if let Some(mode) = self.text(Key::Mode) {
            *opts = compile_mode(mode).ok_or_else(|| {
                Key::Mode.err(format!("unknown mode {mode:?} (baseline | speculative | auto)"))
            })?;
        }
        if let Some(repair) = self.text(Key::Repair) {
            *opts = RepairStrategy::parse(repair).map_err(|e| Key::Repair.err(e))?.options();
        }
        opts.deconflict = match self.text(Key::Deconflict) {
            None => opts.deconflict,
            Some("dynamic") => DeconflictMode::Dynamic,
            Some("static") => DeconflictMode::Static,
            Some(other) => {
                return Err(
                    Key::Deconflict.err(format!("unknown deconflict {other:?} (dynamic | static)"))
                )
            }
        };
        if let Some(on) = self.text(Key::BarrierAlloc) {
            let bad = |_| Key::BarrierAlloc.err(format!("expects true or false, got `{on}`"));
            opts.barrier_allocation = on.parse().map_err(bad)?;
        }
        Ok(())
    }
}

/// Sets the soft-barrier threshold of every `Predict` in `module`.
fn set_threshold(module: &mut Module, threshold: u32) {
    for (_, f) in module.functions.iter_mut() {
        for p in &mut f.predictions {
            p.threshold = Some(threshold);
        }
    }
}

/// The compile keys alone (`threshold` through `barrier_alloc` in the
/// table), for a command that compiles `module` and launches nothing:
/// sets the thresholds in `module` and returns the options. Any other
/// key is an error naming it.
pub fn compile_options<K: AsRef<str>, V: AsRef<str>>(
    module: &mut Module,
    pairs: &[(K, V)],
) -> Result<CompileOptions, SpecError> {
    let given = Given::new(pairs)?;
    if let Some(key) = given.any(|k| !k.is_compile()) {
        return Err(key.err("not a compile key, and this command only compiles"));
    }
    let mut opts = CompileOptions::default();
    given.defaulted().compile(module, &mut opts)?;
    Ok(opts)
}

/// A decimal or `0x`-prefixed hexadecimal unsigned integer.
fn number(text: &str) -> Option<u64> {
    let text = text.trim();
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

impl RunSpec {
    /// Builds a spec from `(key, value)` pairs; a repeated key keeps its
    /// last value. Errors name the key: unknown, of the wrong kind, out of
    /// bounds, an unknown name, kernel source that does not parse or
    /// verify, or no target or two.
    pub fn parse<K: AsRef<str>, V: AsRef<str>>(pairs: &[(K, V)]) -> Result<RunSpec, SpecError> {
        let given = Given::new(pairs)?;
        let mut spec = RunSpec::of(given.target()?);
        given.apply(&mut spec)?;
        Ok(spec)
    }

    /// `workload` at every key's default: one launch, compiled and run as
    /// [`RunSpec::parse`] does when no other key is given.
    pub fn of(workload: Workload) -> RunSpec {
        let seeds = Seeds::Count(1);
        let (compile, cfg) = (Some(CompileOptions::default()), SimConfig::default());
        let mut spec = RunSpec { workload, compile, cfg, seeds };
        Given([None; TABLE.len()]).defaulted().apply(&mut spec).expect("the defaults apply");
        spec
    }

    /// Amends the spec with `(key, value)` pairs, each key as
    /// [`RunSpec::parse`] applies it. A key not given keeps the spec's
    /// value, so options or a machine set in code stand unless a pair sets
    /// one of their keys. The target keys are refused, since the spec has
    /// its target; on an error the spec may be partly amended.
    pub fn apply<K: AsRef<str>, V: AsRef<str>>(
        &mut self,
        pairs: &[(K, V)],
    ) -> Result<(), SpecError> {
        let given = Given::new(pairs)?;
        if let Some(key) = given.any(Key::is_target) {
            return Err(key.err("names a target, and the spec has one"));
        }
        given.apply(self)
    }
}

/// The built-in workload `name`.
fn named(name: &str, given: &Given) -> Result<Workload, SpecError> {
    if let Some(key) = given.any(|k| matches!(k, Key::Entry | Key::Mem)) {
        return Err(key.err("applies to kernel source only"));
    }
    crate::by_name(name).ok_or_else(|| {
        let known = crate::names().join(", ");
        Key::Workload.err(format!("unknown workload {name:?} (known: {known})"))
    })
}

/// Kernel source as a workload: its `entry` (default: the first kernel),
/// four warps, `mem` zeroed cells (default 1024).
fn inline(src: &str, given: &Given) -> Result<Workload, SpecError> {
    let module = parse_and_link(src).map_err(|e| Key::Kernel.err(format!("parse error: {e}")))?;
    verify_module(&module).map_err(|errs| {
        let lines: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        Key::Kernel.err(format!("verification failed: {}", lines.join("; ")))
    })?;
    let entry = match given.text(Key::Entry) {
        Some(k) => k.to_string(),
        None => module
            .functions
            .iter()
            .find(|(_, f)| f.kind == FuncKind::Kernel)
            .map(|(_, f)| f.name.clone())
            .ok_or_else(|| Key::Kernel.err("has no kernel"))?,
    };
    if module.function_by_name(&entry).is_none() {
        return Err(Key::Entry.err(format!("no kernel named @{entry}")));
    }
    let mut launch = Launch::new(entry, 4);
    launch.global_mem = vec![Value::I64(0); given.uint(Key::Mem)?.unwrap_or(1024) as usize];
    Ok(Workload {
        name: "inline",
        description: "Kernel source given with the run.",
        // Unclassified; the pattern only labels the registry's tables.
        pattern: DivergencePattern::IterationDelay,
        module,
        launch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::DEFAULT_SEED;

    const SRC: &str = "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\nbb0:\n  %r0 = special.tid\n  %r1 = mul %r0, 2\n  store global[%r0], %r1\n  exit\n}\n";

    fn parse(pairs: &[(&str, &str)]) -> Result<RunSpec, SpecError> {
        RunSpec::parse(pairs)
    }

    fn err(pairs: &[(&str, &str)]) -> SpecError {
        parse(pairs).expect_err("the spec is rejected")
    }

    #[test]
    fn the_table_is_indexed_by_key_and_names_are_unique() {
        for (i, key) in Key::all().enumerate() {
            assert_eq!(key as usize, i, "{key:?}");
            assert_eq!(Key::named(key.name()), Some(key));
        }
        assert_eq!(Key::all().count(), 15);
        assert_eq!(Key::named("nope"), None);
    }

    #[test]
    fn defaults_match_the_historical_surfaces() {
        let s = parse(&[("kernel", SRC)]).unwrap();
        assert_eq!(s.workload.name, "inline");
        assert_eq!(s.workload.launch.kernel, "k");
        assert_eq!(s.workload.launch.num_warps, 4);
        assert_eq!(s.workload.launch.global_mem.len(), 1024);
        assert_eq!(s.workload.launch.seed, DEFAULT_SEED);
        assert_eq!(s.seeds, Seeds::Count(1));
        assert_eq!(s.compile.as_ref().map(|o| o.speculative), Some(true));
        assert_eq!(s.cfg, SimConfig::default());

        let s = parse(&[("workload", "microbench")]).unwrap();
        assert_eq!(s.workload.name, "microbench", "reported under the asked name");
        let built = crate::by_name("microbench").unwrap();
        assert_eq!(s.workload.launch.num_warps, built.launch.num_warps);
        assert_eq!(s.workload.module.to_string(), built.module.to_string());
    }

    /// Each key, with a value that moves it off its default.
    #[test]
    fn every_key_applies() {
        let hier = "l1:lines=8,cells=16,lat=2,mshrs=4;dram:lat=24,extra=2";
        let s = parse(&[
            ("kernel", SRC),
            ("entry", "k"),
            ("mem", "64"),
            ("warps", "2"),
            ("seed", "0x10"),
            ("seeds", "3"),
            ("threshold", "7"),
            ("mode", "baseline"),
            ("deconflict", "static"),
            ("barrier_alloc", "true"),
            ("policy", "min-pc"),
            ("mem_hier", hier),
            ("recon_model", "ipdom-stack"),
        ])
        .unwrap();
        let l = &s.workload.launch;
        assert_eq!((l.kernel.as_str(), l.global_mem.len(), l.num_warps, l.seed), ("k", 64, 2, 16));
        assert_eq!(s.seeds, Seeds::Count(3));
        let opts = s.compile.unwrap();
        assert!(!opts.speculative);
        assert_eq!(opts.deconflict, DeconflictMode::Static);
        assert!(opts.barrier_allocation);
        assert_eq!(s.cfg.scheduler, SchedulerPolicy::MinPc);
        assert_eq!(s.cfg.mem.map(|h| h.levels[0].lines), Some(8));
        assert_eq!(s.cfg.recon, ReconvergenceModel::IpdomStack);

        let s = parse(&[
            ("workload", "rsbench"),
            ("threshold", "12"),
            ("seeds", "0x10..0x14"),
            ("repair", "sr+meld"),
        ])
        .unwrap();
        for (_, f) in s.workload.module.functions.iter() {
            for p in &f.predictions {
                assert_eq!(p.threshold, Some(12));
            }
        }
        assert_eq!(s.seeds, Seeds::Range(16, 20));
        let opts = s.compile.unwrap();
        assert_eq!(opts.meld.is_some(), RepairStrategy::SrMeld.options().meld.is_some());
        for mode in ["baseline", "speculative", "auto"] {
            assert!(is_mode(mode), "{mode}");
            parse(&[("workload", "srad"), ("mode", mode)]).unwrap();
        }
        assert!(!is_mode("turbo"));
    }

    #[test]
    fn repair_overrides_mode_in_either_order() {
        for pairs in [
            [("workload", "srad"), ("mode", "speculative"), ("repair", "pdom")],
            [("workload", "srad"), ("repair", "pdom"), ("mode", "speculative")],
        ] {
            assert!(!parse(&pairs).unwrap().compile.unwrap().speculative);
        }
    }

    #[test]
    fn bounds_are_enforced_not_clamped() {
        for (pairs, needle) in [
            (&[("workload", "rsbench"), ("warps", "0")][..], "must be in 1..=4096, got 0"),
            (&[("workload", "rsbench"), ("warps", "4097")], "got 4097"),
            (&[("kernel", SRC), ("mem", "4194305")], "must be in 0..=4194304"),
            (&[("workload", "rsbench"), ("threshold", "4294967296")], "0..=4294967295"),
            (&[("workload", "rsbench"), ("seeds", "0")], "must run 1..=400 seeds, got 0"),
            (&[("workload", "rsbench"), ("seeds", "1000")], "got 1000"),
            (&[("workload", "rsbench"), ("seeds", "0..401")], "got 401"),
            (&[("workload", "rsbench"), ("seeds", "9..3")], "empty"),
            (&[("workload", "rsbench"), ("seeds", "x..y")], "bad seed `x`"),
            (&[("workload", "rsbench"), ("seed", "-1")], "expects a number"),
            (&[("workload", "rsbench"), ("barrier_alloc", "yes")], "true or false"),
        ] {
            let e = err(pairs);
            assert!(e.reason.contains(needle), "{pairs:?}: {e}");
            assert_eq!(e.key.as_deref(), Some(pairs[1].0));
        }
        // The bounds themselves are accepted.
        parse(&[("workload", "rsbench"), ("warps", "4096"), ("seeds", "0..400")]).unwrap();
        parse(&[("kernel", SRC), ("mem", "4194304"), ("seeds", "400")]).unwrap();
    }

    #[test]
    fn unknown_names_and_targets_are_rejected_with_their_key() {
        for (pairs, key, needle) in [
            (&[("workload", "rsbench"), ("mem_heir", "x")][..], Some("mem_heir"), "unknown option"),
            (&[("workload", "nope")], Some("workload"), "unknown workload"),
            (&[("workload", "rsbench"), ("kernel", SRC)], Some("workload"), "not both"),
            (&[], None, "missing `workload`"),
            (&[("kernel", "kernel @")], Some("kernel"), "parse error"),
            (&[("kernel", SRC), ("entry", "j")], Some("entry"), "no kernel named @j"),
            (&[("workload", "rsbench"), ("mem", "64")], Some("mem"), "kernel source only"),
            (&[("workload", "rsbench"), ("entry", "k")], Some("entry"), "kernel source only"),
            (&[("workload", "rsbench"), ("mode", "turbo")], Some("mode"), "unknown mode"),
            (&[("workload", "rsbench"), ("repair", "dup")], Some("repair"), "repair strategy"),
            (&[("workload", "rsbench"), ("deconflict", "x")], Some("deconflict"), "dynamic"),
            (&[("workload", "rsbench"), ("policy", "fifo")], Some("policy"), "unknown policy"),
            (&[("workload", "rsbench"), ("mem_hier", "l9:lines=1")], Some("mem_hier"), "l9"),
            (&[("workload", "rsbench"), ("recon_model", "volta")], Some("recon_model"), "volta"),
        ] {
            let e = err(pairs);
            assert_eq!(e.key.as_deref(), key, "{pairs:?}: {e}");
            assert!(e.reason.contains(needle), "{pairs:?}: {e}");
        }
        let e = err(&[("workload", "rsbench"), ("warps", "0")]);
        assert_eq!(e.to_string(), "`warps`: must be in 1..=4096, got 0");
    }

    #[test]
    fn compile_options_take_the_compile_keys_alone() {
        let mut module = crate::by_name("rsbench").unwrap().module;
        let keys = [("mode", "baseline"), ("deconflict", "static"), ("barrier_alloc", "true")];
        let opts = compile_options(&mut module, &[keys.as_slice(), &[("threshold", "3")]].concat());
        let opts = opts.unwrap();
        assert!(!opts.speculative && opts.barrier_allocation, "{opts:?}");
        assert_eq!(opts.deconflict, DeconflictMode::Static);
        for (_, f) in module.functions.iter() {
            assert!(f.predictions.iter().all(|p| p.threshold == Some(3)));
        }
        assert!(compile_options(&mut module, &[("repair", "sr+meld")]).unwrap().meld.is_some());
        // Launch and machine keys name themselves; so does a misspelling.
        for (key, value) in
            [("warps", "2"), ("seeds", "400"), ("policy", "minpc"), ("kernel", SRC), ("entry", "k")]
        {
            let e = compile_options(&mut module, &[(key, value)]).unwrap_err();
            assert_eq!(e.key.as_deref(), Some(key));
            assert!(e.reason.contains("only compiles"), "{e}");
        }
        let e = compile_options(&mut module, &[("polcy", "minpc")]).unwrap_err();
        assert_eq!(e.to_string(), "`polcy`: unknown option");
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let s = parse(&[("workload", "rsbench"), ("warps", "1"), ("warps", "3")]).unwrap();
        assert_eq!(s.workload.launch.num_warps, 3);
    }
}
