//! Configurable memory-hierarchy cost model: L1/L2(/L3) cache levels
//! over a DRAM segment model, with MSHR-style outstanding-miss
//! tracking.
//!
//! This is the simulator's only cache model. The hierarchy never serves
//! data — loads always read the real memory array, so kernel *results*
//! are exact; the model only prices each global access, on top of the
//! flat coalescing fold that applies when it is off:
//!
//! - **Levels.** An access dedups its cell addresses into L1 lines and
//!   probes the L1 tag array; missing lines rebase to the next level's
//!   line granularity and probe there, and whatever misses the last
//!   cache level is serviced by memory in DRAM segments. Every level a
//!   line misses at fills its tag on the way back (direct-mapped, one
//!   tag array per level per warp).
//! - **Cost.** Each level that services at least one line contributes
//!   `latency + extra * (serviced - 1)` (latency plus a per-extra-line
//!   bandwidth term); the access pays the **max** over contributing
//!   levels — levels overlap in time and the slowest dominates. An
//!   access fully served by caches is clamped to at least 1 cycle.
//! - **MSHRs.** Each cache level may model a file of `mshrs`
//!   miss-status holding registers shared by the whole machine
//!   (all warps). A missing line matching an in-flight entry is a
//!   *miss merge* (it waits for that fill, allocates nothing); a new
//!   miss needs a free entry, and when the file cannot hold every new
//!   miss the access *stalls* until enough in-flight fills retire.
//!   The per-level penalty `max(merge wait, stall)` is added to the
//!   access cost, and newly allocated entries retire when the access
//!   completes. `mshrs = 0` disables tracking for that level.
//!
//! Determinism: all engines issue global accesses unbatched, at their
//! round's cycle, visiting warps in index order — so the shared MSHR
//! file sees the identical access sequence in the reference walker,
//! the decoded hot loop, and each slot of a sweep cohort, and the
//! conformance grid keeps passing. The depth-0 constructor
//! [`MemHierarchy::flat`] reproduces the hierarchy-off coalescing cost
//! bit-exactly and [`MemHierarchy::l1`] is the single-level L1 cache
//! (both pinned across all three engines by the conformance grid,
//! `crates/conformance/src/grid.rs`).

use crate::config::LatencyModel;

/// Maximum number of cache levels a hierarchy may configure (L1..L3);
/// DRAM sits below the last configured level.
pub const MAX_MEM_LEVELS: usize = 3;

/// One cache level of a [`MemHierarchy`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemLevel {
    /// Tag-array capacity in lines (direct-mapped).
    pub lines: usize,
    /// Memory cells per line at this level.
    pub cells_per_line: usize,
    /// Access cost when this is the slowest contributing level.
    pub latency: u32,
    /// Extra cost per additional line serviced here (bandwidth).
    pub extra: u32,
    /// Miss-status holding registers shared machine-wide; 0 disables
    /// outstanding-miss tracking for this level.
    pub mshrs: usize,
}

/// A multi-level memory hierarchy: up to [`MAX_MEM_LEVELS`] cache
/// levels (innermost first) over a DRAM segment model.
///
/// When [`SimConfig::mem`](crate::config::SimConfig::mem) is set it
/// replaces the flat coalescing fold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemHierarchy {
    /// Cache levels, L1 first. May be empty (DRAM only).
    pub levels: Vec<MemLevel>,
    /// Latency when at least one line is serviced by memory.
    pub mem_latency: u32,
    /// Extra cost per additional DRAM segment touched.
    pub mem_extra: u32,
    /// Cells per DRAM segment (coalescing granularity below the last
    /// cache level).
    pub mem_cells_per_segment: usize,
}

impl MemHierarchy {
    /// The depth-0 degenerate case: no cache levels, DRAM geometry and
    /// costs taken from the flat [`LatencyModel`]. Reproduces the flat
    /// coalescing cost `mem_base + mem_segment * (segments - 1)`
    /// bit-exactly.
    pub fn flat(lat: &LatencyModel) -> Self {
        Self {
            levels: Vec::new(),
            mem_latency: lat.mem_base,
            mem_extra: lat.mem_segment,
            mem_cells_per_segment: (lat.segment_bytes / lat.cell_bytes).max(1) as usize,
        }
    }

    /// The single-level cache: one direct-mapped per-warp L1 of `lines`
    /// lines of `cells_per_line` cells over the flat model's DRAM costs.
    /// An access whose lines all hit pays `hit_cost.max(1)`, otherwise
    /// `mem_base + mem_segment * (misses - 1)` (as long as
    /// `hit_cost <= mem_base`, true for every sensible config: a hit is
    /// cheaper than a miss).
    pub fn l1(lines: usize, cells_per_line: usize, hit_cost: u32, lat: &LatencyModel) -> Self {
        let cells_per_line = cells_per_line.max(1);
        Self {
            levels: vec![MemLevel { lines, cells_per_line, latency: hit_cost, extra: 0, mshrs: 0 }],
            mem_latency: lat.mem_base,
            mem_extra: lat.mem_segment,
            mem_cells_per_segment: cells_per_line,
        }
    }

    /// Parses a compact hierarchy spec, e.g.
    /// `l1:lines=64,cells=16,lat=2,mshrs=4;l2:lines=512,lat=8;dram:lat=24,extra=2`.
    ///
    /// Parts are `;`-separated and must appear in order `l1`, `l2`,
    /// `l3`, `dram` (each optional except that cache levels may not
    /// skip — `l2` requires `l1`). Keys per cache level: `lines`
    /// (default 64), `cells` (default 16), `lat` (defaults 2/8/16 for
    /// l1/l2/l3), `extra` (default 0), `mshrs` (default 0). Keys for
    /// `dram`: `lat`, `extra`, `cells` (defaults from `lat`:
    /// `mem_base`, `mem_segment`, segment cells).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown parts/keys, numbers
    /// that fail to parse, zero capacities, or out-of-order parts.
    pub fn parse(spec: &str, lat: &LatencyModel) -> Result<Self, String> {
        const LEVEL_NAMES: [&str; MAX_MEM_LEVELS] = ["l1", "l2", "l3"];
        const LEVEL_DEFAULT_LAT: [u32; MAX_MEM_LEVELS] = [2, 8, 16];
        let mut hier = Self::flat(lat);
        let mut next_level = 0usize;
        let mut seen_dram = false;
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, body) = match part.split_once(':') {
                Some((n, b)) => (n.trim(), b),
                None => (part, ""),
            };
            let mut kvs = Vec::new();
            for kv in body.split(',') {
                let kv = kv.trim();
                if kv.is_empty() {
                    continue;
                }
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("mem spec: expected key=value, got {kv:?}"))?;
                let v: u64 =
                    v.trim().parse().map_err(|_| format!("mem spec: bad number in {kv:?}"))?;
                kvs.push((k.trim(), v));
            }
            if name == "dram" {
                if seen_dram {
                    return Err("mem spec: duplicate dram part".into());
                }
                seen_dram = true;
                for (k, v) in kvs {
                    match k {
                        "lat" => hier.mem_latency = v as u32,
                        "extra" => hier.mem_extra = v as u32,
                        "cells" => hier.mem_cells_per_segment = (v as usize).max(1),
                        _ => return Err(format!("mem spec: unknown dram key {k:?}")),
                    }
                }
                continue;
            }
            let idx = LEVEL_NAMES
                .iter()
                .position(|&n| n == name)
                .ok_or_else(|| format!("mem spec: unknown part {name:?}"))?;
            if seen_dram || idx != next_level {
                return Err(format!(
                    "mem spec: part {name:?} out of order (expected l1;l2;l3;dram)"
                ));
            }
            next_level += 1;
            let mut level = MemLevel {
                lines: 64,
                cells_per_line: 16,
                latency: LEVEL_DEFAULT_LAT[idx],
                extra: 0,
                mshrs: 0,
            };
            for (k, v) in kvs {
                match k {
                    "lines" => level.lines = v as usize,
                    "cells" => level.cells_per_line = (v as usize).max(1),
                    "lat" => level.latency = v as u32,
                    "extra" => level.extra = v as u32,
                    "mshrs" => level.mshrs = v as usize,
                    _ => return Err(format!("mem spec: unknown {name} key {k:?}")),
                }
            }
            if level.lines == 0 {
                return Err(format!("mem spec: {name} needs lines > 0"));
            }
            hier.levels.push(level);
        }
        Ok(hier)
    }
}

/// Per-level counters of one access, and of a whole run (the fields of
/// [`Metrics::mem`](crate::metrics::Metrics)). Fixed-size and `Copy`
/// so the sweep engine can key sub-cohort forks on a whole outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MemLevelStats {
    /// Lines serviced (tag hits) at this level.
    pub hits: u64,
    /// Lines that missed at this level.
    pub misses: u64,
    /// Missing lines merged into an in-flight MSHR entry.
    pub mshr_merges: u64,
    /// Cycles of MSHR penalty (merge waits and full-file stalls).
    pub mshr_stall_cycles: u64,
}

/// Whole-run memory-hierarchy counters, aggregated per level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MemStats {
    /// Per-cache-level counters (index 0 = L1). Unconfigured levels
    /// stay zero.
    pub levels: [MemLevelStats; MAX_MEM_LEVELS],
    /// Global accesses that reached memory (missed every cache level).
    pub dram_accesses: u64,
    /// DRAM segments serviced.
    pub dram_segments: u64,
}

impl MemStats {
    /// Folds one access outcome into the run totals.
    pub(crate) fn record(&mut self, out: &AccessOutcome) {
        for (l, o) in self.levels.iter_mut().zip(out.levels.iter()) {
            l.hits += u64::from(o.hits);
            l.misses += u64::from(o.misses);
            l.mshr_merges += u64::from(o.mshr_merges);
            l.mshr_stall_cycles += u64::from(o.mshr_stall);
        }
        if out.dram_segments > 0 {
            self.dram_accesses += 1;
            self.dram_segments += u64::from(out.dram_segments);
        }
    }
}

/// One cache level's per-access outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct LevelOutcome {
    /// Lines serviced (tag hits) at this level.
    pub hits: u32,
    /// Lines that missed here and went deeper.
    pub misses: u32,
    /// Misses merged into in-flight MSHR entries.
    pub mshr_merges: u32,
    /// MSHR penalty cycles charged at this level.
    pub mshr_stall: u32,
}

/// Everything one global access's walk decided: the total cost and the
/// per-level counters. `Copy + Eq` so the sweep engine partitions
/// slots by the whole outcome — slots whose walk disagrees in *any*
/// observable fork into their own sub-cohort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct AccessOutcome {
    /// Issue cost of the access (replaces the instruction base cost).
    pub cost: u32,
    /// Per-level counters (index 0 = L1).
    pub levels: [LevelOutcome; MAX_MEM_LEVELS],
    /// DRAM segments serviced.
    pub dram_segments: u32,
}

impl AccessOutcome {
    /// Total MSHR penalty cycles across levels (the max that was folded
    /// into `cost`), for journal/profile attribution.
    pub fn total_stall(&self) -> u32 {
        self.levels.iter().map(|l| l.mshr_stall).max().unwrap_or(0)
    }
}

/// Per-warp hierarchy tag state: one direct-mapped tag array per
/// configured level. Empty when the hierarchy is off.
#[derive(Clone, Debug, Default)]
pub(crate) struct MemTags {
    pub(crate) levels: Vec<Vec<Option<i64>>>,
}

impl MemTags {
    pub(crate) fn new(hier: Option<&MemHierarchy>) -> Self {
        Self {
            levels: hier
                .map(|h| h.levels.iter().map(|l| vec![None; l.lines]).collect())
                .unwrap_or_default(),
        }
    }
}

/// One level's machine-wide MSHR file: parallel `(line, release)`
/// arrays. An entry is *busy* (in flight) while `release > now`.
#[derive(Clone, Debug, Default)]
pub(crate) struct MshrFile {
    pub(crate) line: Vec<i64>,
    pub(crate) release: Vec<u64>,
}

/// Machine-wide MSHR state, one file per configured level (empty file
/// when that level's `mshrs` is 0). Shared by every warp — miss
/// pressure from one warp stalls another, which is the point.
#[derive(Clone, Debug, Default)]
pub(crate) struct MemMshrs {
    pub(crate) levels: Vec<MshrFile>,
}

impl MemMshrs {
    pub(crate) fn new(hier: Option<&MemHierarchy>) -> Self {
        Self {
            levels: hier
                .map(|h| {
                    h.levels
                        .iter()
                        .map(|l| MshrFile { line: vec![0; l.mshrs], release: vec![0; l.mshrs] })
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// Reusable staging buffers for one access's walk. Cleared, never
/// dropped, between accesses — the hot loops stay allocation-free once
/// each buffer reaches its high-water mark.
#[derive(Debug, Default)]
pub(crate) struct MemScratch {
    /// Deduped line ids entering each level (index [`MAX_MEM_LEVELS`]
    /// holds the DRAM segment ids).
    lines: [Vec<i64>; MAX_MEM_LEVELS + 1],
    /// Lines that missed at each level (tag fills on commit).
    missing: [Vec<i64>; MAX_MEM_LEVELS],
    /// Missing lines needing a fresh MSHR entry (commit allocation).
    alloc: [Vec<i64>; MAX_MEM_LEVELS],
    /// Busy-release sort buffer for the stall computation.
    releases: Vec<u64>,
}

/// Computes one access's outcome *without mutating* tag or MSHR state
/// (the sweep cohort's cost phase: a forked slot's pre-access state
/// must stay intact).
pub(crate) fn probe(
    hier: &MemHierarchy,
    tags: &MemTags,
    mshrs: &MemMshrs,
    scratch: &mut MemScratch,
    addrs: &[i64],
    now: u64,
) -> AccessOutcome {
    walk(hier, tags, mshrs, scratch, addrs, now)
}

/// Computes one access's outcome and applies it: tag fills at every
/// missed level and MSHR merge/allocate/retire bookkeeping. Returns
/// exactly what [`probe`] with the same pre-state returns.
pub(crate) fn commit(
    hier: &MemHierarchy,
    tags: &mut MemTags,
    mshrs: &mut MemMshrs,
    scratch: &mut MemScratch,
    addrs: &[i64],
    now: u64,
) -> AccessOutcome {
    let out = walk(hier, tags, mshrs, scratch, addrs, now);
    let release = now + u64::from(out.cost);
    for (k, level) in hier.levels.iter().enumerate() {
        // Tag fills, in line order: a later miss colliding with an
        // earlier one leaves the last line resident.
        let cap = level.lines as i64;
        for &line in &scratch.missing[k] {
            tags.levels[k][line.rem_euclid(cap) as usize] = Some(line);
        }
        if level.mshrs == 0 {
            continue;
        }
        // Allocate entries for non-merged misses: free entries (retired
        // by `now + stall`) in index order first, then wrap, oldest
        // index first — deterministic, so every engine replays the
        // identical file state.
        let stall = u64::from(out.levels[k].mshr_stall);
        let file = &mut mshrs.levels[k];
        let n = file.release.len();
        // Scan for free entries in index order; freeness is judged
        // against the pre-commit state (writes only land on slots the
        // scan already passed, so the cursor never re-reads one).
        let mut cursor = 0usize;
        let mut wrap = 0usize;
        for &line in &scratch.alloc[k] {
            let slot = loop {
                if cursor < n {
                    let i = cursor;
                    cursor += 1;
                    if file.release[i] <= now + stall {
                        break i;
                    }
                } else {
                    let s = wrap % n;
                    wrap += 1;
                    break s;
                }
            };
            file.line[slot] = line;
            file.release[slot] = release;
        }
    }
    out
}

/// Drops the lines covering `addrs` from every configured level of one
/// warp's tag state (write-through stores and atomics invalidate; MSHR
/// entries — in-flight fills — are unaffected).
pub(crate) fn invalidate(hier: &MemHierarchy, tags: &mut MemTags, addrs: &[i64]) {
    for (k, level) in hier.levels.iter().enumerate() {
        let cells = level.cells_per_line as i64;
        let cap = level.lines as i64;
        for &a in addrs {
            let line = a.div_euclid(cells);
            let slot = line.rem_euclid(cap) as usize;
            if tags.levels[k][slot] == Some(line) {
                tags.levels[k][slot] = None;
            }
        }
    }
}

/// The shared walk: dedups addresses into L1 lines, filters each
/// level's line set through its tag array (with an in-access overlay so
/// an earlier fill can evict the line a later one would have hit),
/// rebases misses to the next level, prices the MSHR file, and takes
/// the max cost over contributing levels. Pure — mutations happen in
/// [`commit`] from the staged `scratch` lists.
fn walk(
    hier: &MemHierarchy,
    tags: &MemTags,
    mshrs: &MemMshrs,
    scratch: &mut MemScratch,
    addrs: &[i64],
    now: u64,
) -> AccessOutcome {
    let mut out = AccessOutcome::default();
    if addrs.is_empty() {
        return out;
    }
    // Stage the innermost line set (or DRAM segments when no cache
    // levels are configured).
    let first_cells = hier
        .levels
        .first()
        .map(|l| l.cells_per_line as i64)
        .unwrap_or(hier.mem_cells_per_segment.max(1) as i64);
    let first = if hier.levels.is_empty() { MAX_MEM_LEVELS } else { 0 };
    let cur = &mut scratch.lines[first];
    cur.clear();
    cur.extend(addrs.iter().map(|a| a.div_euclid(first_cells)));
    cur.sort_unstable();
    cur.dedup();

    let mut cost = 0u32;
    let mut penalty = 0u64;
    for (k, level) in hier.levels.iter().enumerate() {
        let (head, tail) = scratch.lines.split_at_mut(k + 1);
        let cur = &head[k];
        if cur.is_empty() {
            tail[0].clear();
            scratch.missing[k].clear();
            scratch.alloc[k].clear();
            continue;
        }
        // Overlay tag walk: decisions read the would-be fills of
        // earlier lines in this same access without mutating the array.
        let cap = level.lines as i64;
        let col = &tags.levels[k];
        let missing = &mut scratch.missing[k];
        missing.clear();
        let mut overlay = [(0usize, 0i64); 64];
        let mut overlay_n = 0usize;
        let mut hits = 0u32;
        for &line in cur.iter() {
            let slot = line.rem_euclid(cap) as usize;
            let tag = overlay[..overlay_n]
                .iter()
                .rev()
                .find(|&&(sl, _)| sl == slot)
                .map(|&(_, ln)| Some(ln))
                .unwrap_or(col[slot]);
            if tag == Some(line) {
                hits += 1;
            } else {
                if overlay_n < overlay.len() {
                    overlay[overlay_n] = (slot, line);
                    overlay_n += 1;
                }
                missing.push(line);
            }
        }
        out.levels[k].hits = hits;
        out.levels[k].misses = missing.len() as u32;
        if hits > 0 {
            cost = cost.max(level.latency.saturating_add(level.extra.saturating_mul(hits - 1)));
        }
        // MSHR pricing over the missing lines.
        let alloc = &mut scratch.alloc[k];
        alloc.clear();
        if level.mshrs > 0 && !missing.is_empty() {
            let file = &mshrs.levels[k];
            let mut merge_wait = 0u64;
            let mut merges = 0u32;
            for &line in missing.iter() {
                let inflight = (0..file.release.len())
                    .find(|&i| file.release[i] > now && file.line[i] == line);
                match inflight {
                    Some(i) => {
                        merges += 1;
                        merge_wait = merge_wait.max(file.release[i] - now);
                    }
                    None => alloc.push(line),
                }
            }
            let releases = &mut scratch.releases;
            releases.clear();
            releases.extend(file.release.iter().copied().filter(|&r| r > now));
            releases.sort_unstable();
            let total = file.release.len();
            let free = total - releases.len();
            let need = alloc.len();
            let stall = if need <= free {
                0
            } else if need <= total {
                releases[need - free - 1] - now
            } else {
                // The access needs more entries than the file holds:
                // drain everything in flight, then charge one full
                // level latency per overflow wave entry (a modeling
                // approximation; such configs are pathological).
                releases.last().copied().unwrap_or(now) - now
                    + (need - total) as u64 * u64::from(level.latency.max(1))
            };
            let lp = merge_wait.max(stall);
            out.levels[k].mshr_merges = merges;
            out.levels[k].mshr_stall = u32::try_from(lp).unwrap_or(u32::MAX);
            penalty = penalty.max(lp);
        } else {
            // All misses allocate notionally; nothing to track.
            alloc.extend_from_slice(missing);
        }
        // Rebase misses to the next level's granularity (monotone, so
        // the staged list stays sorted and dedups adjacently).
        let next_cells = hier
            .levels
            .get(k + 1)
            .map(|l| l.cells_per_line as i64)
            .unwrap_or(hier.mem_cells_per_segment.max(1) as i64);
        let cells = level.cells_per_line as i64;
        let next = &mut tail[0];
        next.clear();
        next.extend(missing.iter().map(|&l| (l * cells).div_euclid(next_cells)));
        next.dedup();
    }
    let dram_idx = if hier.levels.is_empty() { MAX_MEM_LEVELS } else { hier.levels.len() };
    let dram = &scratch.lines[dram_idx];
    let nsegs = dram.len() as u32;
    out.dram_segments = nsegs;
    if nsegs > 0 {
        cost = cost.max(hier.mem_latency.saturating_add(hier.mem_extra.saturating_mul(nsegs - 1)));
    } else {
        // Fully cache-serviced accesses still take a cycle.
        cost = cost.max(1);
    }
    out.cost = cost.saturating_add(u32::try_from(penalty).unwrap_or(u32::MAX));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> LatencyModel {
        LatencyModel::default()
    }

    #[test]
    fn flat_matches_legacy_coalescing() {
        let l = lat();
        let h = MemHierarchy::flat(&l);
        let tags = MemTags::new(Some(&h));
        let mshrs = MemMshrs::new(Some(&h));
        let mut scratch = MemScratch::default();
        for addrs in [vec![0i64, 1, 2, 3], (0..32).collect(), (0..32).map(|i| i * 1000).collect()] {
            let out = probe(&h, &tags, &mshrs, &mut scratch, &addrs, 0);
            let expect = l.mem_base + l.mem_segment * l.segments(&addrs).saturating_sub(1);
            assert_eq!(out.cost, expect, "addrs {addrs:?}");
            assert_eq!(out.dram_segments, l.segments(&addrs));
        }
    }

    #[test]
    fn l1_prices_hits_and_misses() {
        let l = lat();
        let hit_cost = 2;
        let h = MemHierarchy::l1(64, 16, hit_cost, &l);
        let mut tags = MemTags::new(Some(&h));
        let mut mshrs = MemMshrs::new(Some(&h));
        let mut scratch = MemScratch::default();
        let addrs: Vec<i64> = (0..32).collect();
        // Cold: 2 lines miss.
        let out = commit(&h, &mut tags, &mut mshrs, &mut scratch, &addrs, 0);
        assert_eq!(out.cost, l.mem_base + l.mem_segment);
        assert_eq!(out.levels[0].misses, 2);
        // Warm: all hit, cost is the clamped hit cost.
        let out = commit(&h, &mut tags, &mut mshrs, &mut scratch, &addrs, 10);
        assert_eq!(out.cost, hit_cost);
        assert_eq!(out.levels[0].hits, 2);
        assert_eq!(out.dram_segments, 0);
    }

    #[test]
    fn l2_services_l1_misses() {
        let l = lat();
        let mut h = MemHierarchy::parse("l1:lines=4,cells=16,lat=2;l2:lines=64,cells=16,lat=6", &l)
            .unwrap();
        h.mem_latency = 24;
        let mut tags = MemTags::new(Some(&h));
        let mut mshrs = MemMshrs::new(Some(&h));
        let mut scratch = MemScratch::default();
        let addrs: Vec<i64> = (0..16).collect();
        let cold = commit(&h, &mut tags, &mut mshrs, &mut scratch, &addrs, 0);
        assert_eq!(cold.levels[0].misses, 1);
        assert_eq!(cold.levels[1].misses, 1);
        assert_eq!(cold.dram_segments, 1);
        assert_eq!(cold.cost, 24);
        // Evict the L1 line with a conflicting access; L2 still holds it.
        let conflict: Vec<i64> = vec![16 * 4];
        commit(&h, &mut tags, &mut mshrs, &mut scratch, &conflict, 30);
        let warm = commit(&h, &mut tags, &mut mshrs, &mut scratch, &addrs, 60);
        assert_eq!(warm.levels[0].misses, 1);
        assert_eq!(warm.levels[1].hits, 1);
        assert_eq!(warm.dram_segments, 0);
        assert_eq!(warm.cost, 6);
    }

    #[test]
    fn mshr_merges_and_stalls() {
        let l = lat();
        let h = MemHierarchy::parse("l1:lines=64,cells=16,lat=2,mshrs=2;dram:lat=20,extra=2", &l)
            .unwrap();
        let mut tags = MemTags::new(Some(&h));
        let mut mshrs = MemMshrs::new(Some(&h));
        let mut scratch = MemScratch::default();
        // Access A at t=0 misses 2 lines -> fills both MSHRs until t=22.
        let a: Vec<i64> = vec![0, 16];
        let out_a = commit(&h, &mut tags, &mut mshrs, &mut scratch, &a, 0);
        assert_eq!(out_a.levels[0].misses, 2);
        assert_eq!(out_a.levels[0].mshr_stall, 0);
        let release = u64::from(out_a.cost);
        // Access B at t=1 misses one in-flight line -> a merge, waiting
        // out the fill.
        let b: Vec<i64> = vec![0];
        // Invalidate the tag so B misses (tags filled by A's commit).
        invalidate(&h, &mut tags, &[0]);
        let out_b = probe(&h, &tags, &mshrs, &mut scratch, &b, 1);
        assert_eq!(out_b.levels[0].mshr_merges, 1);
        assert_eq!(u64::from(out_b.levels[0].mshr_stall), release - 1);
        // Access C at t=1 misses a fresh line with a full file -> stall
        // until the earliest in-flight entry retires.
        let c: Vec<i64> = vec![512];
        let out_c = probe(&h, &tags, &mshrs, &mut scratch, &c, 1);
        assert_eq!(out_c.levels[0].mshr_merges, 0);
        assert_eq!(u64::from(out_c.levels[0].mshr_stall), release - 1);
        assert_eq!(u64::from(out_c.cost), 20 + release - 1);
        // After the fills retire the file is free again.
        let out_d = probe(&h, &tags, &mshrs, &mut scratch, &c, release);
        assert_eq!(out_d.levels[0].mshr_stall, 0);
    }

    #[test]
    fn a_stalled_miss_takes_the_entry_that_retires_within_its_stall() {
        let l = lat();
        let h = MemHierarchy::parse("l1:lines=64,cells=16,lat=2,mshrs=2;dram:lat=20,extra=2", &l)
            .unwrap();
        let mut tags = MemTags::new(Some(&h));
        let mut mshrs = MemMshrs::new(Some(&h));
        let mut scratch = MemScratch::default();
        let mut miss = |line: i64, now| {
            commit(&h, &mut tags, &mut mshrs, &mut scratch, &[line * 16], now).levels[0].mshr_stall
        };
        // Line 0 takes entry 0 until 20, line 1 entry 1 until 21; at 20
        // entry 0 is free again and line 2 holds it until 40.
        assert_eq!([miss(0, 0), miss(1, 1), miss(2, 20)], [0, 0, 0]);
        // Line 3 at 20 finds both busy, stalls until entry 1 retires at
        // 21 and takes that entry, not the one busy until 40.
        assert_eq!(miss(3, 20), 1);
        assert_eq!(mshrs.levels[0].line, [2, 3]);
        assert_eq!(mshrs.levels[0].release, [40, 41]);
    }

    #[test]
    fn probe_commit_agree_and_commit_mutates() {
        let l = lat();
        let h =
            MemHierarchy::parse("l1:lines=8,cells=16,lat=2,mshrs=4;l2:lines=32,lat=8", &l).unwrap();
        let mut tags = MemTags::new(Some(&h));
        let mut mshrs = MemMshrs::new(Some(&h));
        let mut scratch = MemScratch::default();
        let addrs: Vec<i64> = (0..64).map(|i| i * 7).collect();
        let p = probe(&h, &tags, &mshrs, &mut scratch, &addrs, 5);
        let c = commit(&h, &mut tags, &mut mshrs, &mut scratch, &addrs, 5);
        assert_eq!(p, c);
        // A second probe now sees hits where the commit filled tags.
        // The ascending walk thrashes the 8-slot L1 (28 distinct lines,
        // each evicted by a same-slot successor before its re-probe),
        // so the warm hits land in the 32-slot L2.
        let p2 = probe(&h, &tags, &mshrs, &mut scratch, &addrs, 5 + u64::from(c.cost));
        assert_eq!(p2.levels[0].hits, 0);
        assert!(p2.levels[1].hits > 0);
        assert!(p2.cost < c.cost);
    }

    #[test]
    fn parse_rejects_garbage() {
        let l = lat();
        assert!(MemHierarchy::parse("l2:lines=4", &l).is_err());
        assert!(MemHierarchy::parse("l1:lines=0", &l).is_err());
        assert!(MemHierarchy::parse("l1:wat=3", &l).is_err());
        assert!(MemHierarchy::parse("dram:lat=1;l1:lines=4", &l).is_err());
        assert!(MemHierarchy::parse("l1:lines", &l).is_err());
        let h = MemHierarchy::parse("l1:lines=16,mshrs=4;dram:lat=30", &l).unwrap();
        assert_eq!(h.levels.len(), 1);
        assert_eq!(h.levels[0].mshrs, 4);
        assert_eq!(h.mem_latency, 30);
        assert_eq!(MemHierarchy::parse("", &l).unwrap(), MemHierarchy::flat(&l));
    }

    #[test]
    fn invalidate_drops_every_level() {
        let l = lat();
        let h = MemHierarchy::parse("l1:lines=8;l2:lines=32", &l).unwrap();
        let mut tags = MemTags::new(Some(&h));
        let mut mshrs = MemMshrs::new(Some(&h));
        let mut scratch = MemScratch::default();
        let addrs: Vec<i64> = vec![0, 1];
        commit(&h, &mut tags, &mut mshrs, &mut scratch, &addrs, 0);
        assert!(tags.levels[0].iter().any(|t| t.is_some()));
        assert!(tags.levels[1].iter().any(|t| t.is_some()));
        invalidate(&h, &mut tags, &addrs);
        assert!(tags.levels[0].iter().all(|t| t.is_none()));
        assert!(tags.levels[1].iter().all(|t| t.is_none()));
    }
}
