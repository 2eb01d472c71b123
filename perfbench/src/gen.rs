//! Seeded input streams: Zipf sources, query lines and contact deltas.
//!
//! Everything here is a pure function of the seed, so one seed always
//! gives the same inputs. The generator is SplitMix64, kept local so the
//! streams do not move when a dependency changes its algorithm.

use omnet_temporal::{Contact, Interval};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so different
    /// streams drawn from one workload seed do not overlap.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n).collect();
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Preset seed of the one trace each workload runs on; `--seed` draws the
/// queries, the working-set order and the deltas. Preset draws differ in
/// cost by about ±12% even at one size (the all-pairs induction of twelve
/// 12 h Infocom05 draws took 74–96 ms at best), more than the benchmark's
/// bounds allow across seeds.
pub const PRESET_SEED: u64 = 1;

/// `k` distinct nodes of `0..num_nodes` in random order, stratified so the
/// share of internal devices (`0..num_internal`, the ones with complete
/// logs and most contacts) is the same for every seed.
pub fn stratified_nodes(rng: &mut Rng, num_nodes: u32, num_internal: u32, k: usize) -> Vec<u32> {
    let internal = (k * num_internal as usize + num_nodes as usize / 2) / num_nodes as usize;
    let mut picked: Vec<u32> = rng.permutation(num_internal)[..internal].to_vec();
    let external = rng.permutation(num_nodes - num_internal);
    picked.extend(external[..k - internal].iter().map(|&e| e + num_internal));
    let order = rng.permutation(k as u32);
    order.into_iter().map(|i| picked[i as usize]).collect()
}

/// Zipf(s) over `items`: the item at rank `k` (1-based) is drawn with
/// probability proportional to `k^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    items: Vec<u32>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `items` in the given order.
    pub fn new(items: Vec<u32>, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=items.len())
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { items, cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let k = self.cdf.partition_point(|&c| c <= u);
        self.items[k.min(self.items.len() - 1)]
    }
}

/// What the query lines are drawn over.
#[derive(Debug, Clone, Copy)]
pub struct Universe {
    /// Node ids are `0..num_nodes`.
    pub num_nodes: u32,
    /// Creation times are whole seconds inside this window.
    pub window: Interval,
}

impl Universe {
    fn node_other_than(&self, rng: &mut Rng, src: u32) -> u32 {
        let d = rng.below(u64::from(self.num_nodes) - 1) as u32;
        if d >= src {
            d + 1
        } else {
            d
        }
    }

    fn time(&self, rng: &mut Rng) -> f64 {
        let (a, b) = (self.window.start.as_secs(), self.window.end.as_secs());
        (a + rng.unit() * (b - a)).floor()
    }
}

/// Hop bounds of `delivery` lines; `None` is unbounded (flooding).
const HOP_BOUNDS: [Option<u32>; 4] = [Some(1), Some(2), Some(4), None];

/// One `delivery` line from `src` to a uniform destination at a uniform
/// time, with a hop bound drawn from {1, 2, 4, ∞}.
pub fn delivery_line(rng: &mut Rng, u: &Universe, src: u32) -> String {
    let dst = u.node_other_than(rng, src);
    let at = u.time(rng);
    match HOP_BOUNDS[rng.below(HOP_BOUNDS.len() as u64) as usize] {
        Some(k) => format!("delivery {src} {dst} {at} {k}"),
        None => format!("delivery {src} {dst} {at}"),
    }
}

/// A request of `len` lines: each a `path` query with probability
/// `path_share`, otherwise a `delivery` query; sources from `sources`.
pub fn request_lines(
    rng: &mut Rng,
    u: &Universe,
    sources: &Zipf,
    len: usize,
    path_share: f64,
) -> Vec<String> {
    (0..len)
        .map(|_| {
            let src = sources.sample(rng);
            if rng.unit() < path_share {
                let dst = u.node_other_than(rng, src);
                format!("path {src} {dst} {}", u.time(rng))
            } else {
                delivery_line(rng, u, src)
            }
        })
        .collect()
}

/// One contact delta as the writer sends it: removal picks are reduced
/// modulo the live contact count at send time, so a pick always names a
/// live contact of the current key epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPlan {
    /// Raw removal picks (distinctness is enforced at send time).
    pub remove_picks: Vec<u64>,
    /// Contacts to append, inside the window and the node universe.
    pub append: Vec<Contact>,
}

impl DeltaPlan {
    /// The distinct removal keys this plan names on a trace of
    /// `num_contacts` contacts.
    pub fn remove_keys(&self, num_contacts: usize) -> Vec<u32> {
        let mut keys: Vec<u32> = Vec::with_capacity(self.remove_picks.len());
        for &p in &self.remove_picks {
            let mut k = (p % num_contacts as u64) as u32;
            while keys.contains(&k) {
                k = (k + 1) % num_contacts as u32;
            }
            keys.push(k);
        }
        keys
    }
}

/// A delta removing `k` contacts and appending `k` contacts of 1 to 10
/// minutes between distinct uniform nodes.
pub fn delta_plan(rng: &mut Rng, u: &Universe, k: usize) -> DeltaPlan {
    let remove_picks = (0..k).map(|_| rng.next_u64()).collect();
    let end = u.window.end.as_secs();
    let append = (0..k)
        .map(|_| {
            let a = rng.below(u64::from(u.num_nodes)) as u32;
            let b = u.node_other_than(rng, a);
            let start = u.time(rng);
            let len = 60.0 + (rng.unit() * 540.0).floor();
            Contact::secs(a, b, start, (start + len).min(end))
        })
        .collect();
    DeltaPlan {
        remove_picks,
        append,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe {
            num_nodes: 50,
            window: Interval::secs(0.0, 86_400.0),
        }
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let u = universe();
        let zipf = Zipf::new(Rng::new(7, 0).permutation(50), 1.0);
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            let lines = request_lines(&mut r, &u, &zipf, 64, 0.1);
            let deltas: Vec<DeltaPlan> = (0..8).map(|_| delta_plan(&mut r, &u, 4)).collect();
            (lines, deltas)
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn stratified_nodes_keep_the_internal_share() {
        for seed in 0..20 {
            let mut r = Rng::new(seed, 5);
            let v = stratified_nodes(&mut r, 264, 41, 64);
            assert_eq!(v.iter().filter(|&&n| n < 41).count(), 10);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 64);
            assert!(v.iter().all(|&n| n < 264));
            assert_eq!(v, stratified_nodes(&mut Rng::new(seed, 5), 264, 41, 64));
        }
    }

    #[test]
    fn zipf_is_deterministic_and_skewed_to_low_ranks() {
        let zipf = Zipf::new((0..100).collect(), 1.0);
        let draws = |seed| {
            let mut r = Rng::new(seed, 2);
            (0..20_000).map(|_| zipf.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draws(3);
        assert_eq!(a, draws(3));
        let count = |item| a.iter().filter(|&&x| x == item).count() as f64;
        // P(rank 1) / P(rank 10) = 10 under s = 1.
        let ratio = count(0) / count(9);
        assert!((7.0..14.0).contains(&ratio), "ratio {ratio}");
        assert!(a.iter().all(|&x| x < 100));
    }

    #[test]
    fn query_lines_parse_and_stay_in_range() {
        let u = universe();
        let zipf = Zipf::new((0..50).collect(), 1.0);
        let mut r = Rng::new(5, 3);
        let lines = request_lines(&mut r, &u, &zipf, 500, 0.1);
        let paths = lines.iter().filter(|l| l.starts_with("path")).count();
        assert!((20..90).contains(&paths), "{paths} path lines of 500");
        for line in &lines {
            let q = omnet_serve::Query::parse_line(line)
                .expect("parses")
                .expect("not blank");
            match q {
                omnet_serve::Query::Delivery { src, dst, .. }
                | omnet_serve::Query::Path { src, dst, .. } => {
                    assert!(src < 50 && dst < 50 && src != dst, "{line}");
                }
                other => panic!("unexpected query {other:?}"),
            }
        }
    }

    #[test]
    fn delta_plans_name_distinct_keys_and_in_window_contacts() {
        let u = universe();
        let mut r = Rng::new(9, 4);
        for _ in 0..100 {
            let plan = delta_plan(&mut r, &u, 4);
            let mut keys = plan.remove_keys(5);
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 4);
            assert!(keys.iter().all(|&k| k < 5));
            for c in &plan.append {
                assert!(c.a.0 < 50 && c.b.0 < 50 && c.a != c.b);
                assert!(c.start() >= u.window.start && c.end() <= u.window.end);
                assert!(c.start() <= c.end());
            }
        }
    }
}
