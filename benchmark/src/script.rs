//! Everything a workload's script draws from `--seed`: launch seeds,
//! request order, the corpus seed, and the uniquifier that turns one
//! kernel text into inline kernels the service has never seen.

use crate::json::escape;

/// SplitMix64: small, seedable, and the harness's own, so that a change
/// to the program's vendored `rand` cannot change the scripts.
pub struct Rng(u64);

impl Rng {
    /// A stream of `seed`; different `stream`s of one seed are unrelated.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Streams of the run seed, one per use.
pub mod stream {
    pub const CORPUS: u64 = 1;
    pub const LAUNCH: u64 = 2;
    pub const ORDER: u64 = 3;
}

/// The seed handed to the program's corpus generator.
pub fn corpus_seed(seed: u64) -> u64 {
    Rng::new(seed, stream::CORPUS).next()
}

/// The launch seed of script entry `index`. Kept below 2^31: it travels
/// through JSON numbers.
pub fn launch_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed, stream::LAUNCH ^ (index << 8)).next() >> 33
}

/// `text` with its entry kernel renamed to `<entry>_u<n>`. The printed
/// module is the service's cache key, so every `n` is a cache miss, and a
/// name changes nothing the simulator computes, so the expected cycles of
/// the original still hold.
pub fn uniquify(text: &str, entry: &str, n: u64) -> String {
    text.replace(&format!("@{entry}("), &format!("@{entry}_u{n}("))
}

/// A named-workload request.
pub fn named_body(name: &str, warps: usize, seed: u64) -> Vec<u8> {
    format!("{{\"workload\": {}, \"warps\": {warps}, \"seed\": {seed}}}", escape(name)).into_bytes()
}

/// An inline-kernel request: one launch with `seed`, or with `range` the
/// half-open seed range as one lockstep sweep.
pub fn inline_body(text: &str, seed: u64, range: Option<(u64, u64)>) -> Vec<u8> {
    let seeds = match range {
        Some((lo, hi)) => format!(", \"seeds\": [{lo}, {hi}]"),
        None => String::new(),
    };
    format!("{{\"kernel\": {}, \"seed\": {seed}{seeds}}}", escape(text)).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;

    #[test]
    fn scripts_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut order: Vec<u32> = (0..50).collect();
            Rng::new(seed, stream::ORDER).shuffle(&mut order);
            let launches: Vec<u64> = (0..20).map(|i| launch_seed(seed, i)).collect();
            (order, launches, corpus_seed(seed))
        };
        assert_eq!(draw(7), draw(7));
        let (a, b) = (draw(7), draw(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert!(a.1.iter().all(|&s| s < 1 << 31));
        let mut sorted = a.0.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>(), "a shuffle keeps every entry");
    }

    #[test]
    fn corpus_follows_the_seed() {
        let texts = |seed| -> Vec<String> {
            api::corpus_kernels(12, corpus_seed(seed)).into_iter().map(|k| k.text).collect()
        };
        assert_eq!(texts(3), texts(3));
        assert_ne!(texts(3), texts(4));
    }

    #[test]
    fn uniquified_kernels_parse_verify_and_differ_as_cache_keys() {
        let kernels = api::corpus_kernels(4, 11);
        let mut keys = std::collections::BTreeSet::new();
        for k in &kernels {
            let original = api::parse(&k.text).unwrap();
            keys.insert(original.display());
            for n in [0, 1, 99] {
                let text = uniquify(&k.text, &k.entry, n);
                let parsed = api::parse(&text).unwrap();
                parsed.verify().unwrap();
                assert_eq!(parsed.insts(), original.insts(), "only the name changes");
                assert!(keys.insert(parsed.display()), "{} u{n} repeats a key", k.name);
            }
        }
        assert_eq!(keys.len(), kernels.len() * 4);
    }

    #[test]
    fn request_bodies_are_json_the_service_accepts() {
        let k = &api::corpus_kernels(1, 5)[0];
        let body = inline_body(&uniquify(&k.text, &k.entry, 3), 9, Some((9, 41)));
        let doc = crate::json::Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(doc.get("kernel").unwrap().as_str().unwrap().contains("_u3("));
        assert_eq!(doc.get("seeds").unwrap().as_arr().unwrap().len(), 2);
        api::server_parse_request(&body).unwrap();
        api::server_parse_request(&named_body("seed-storm", 1, 77)).unwrap();
    }
}
