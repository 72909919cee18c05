//! Link latency and bandwidth models.
//!
//! Every transfer on the fabric costs `propagation + size/bandwidth`
//! milliseconds. Propagation comes from a configurable [`LatencyModel`];
//! bandwidth from a per-fabric [`Bandwidth`]. Presets approximate the
//! environments the paper targets: a campus LAN (the authors' testbed)
//! and the open Internet/WAN that motivates mobile agents in the first
//! place (reasons (a)/(b) of Lange & Oshima's list: reduce network
//! load, overcome latency).

use naplet_core::codec::{Decode, Encode};
use rand::Rng;
use std::collections::BTreeMap;

/// Propagation delay model between two hosts.
#[derive(Debug, Clone, Encode, Decode)]
pub enum LatencyModel {
    /// Fixed one-way delay in ms.
    Constant(u64),
    /// Uniformly jittered delay in `[min, max]` ms.
    Uniform {
        /// Lower bound (ms).
        min: u64,
        /// Upper bound (ms), inclusive.
        max: u64,
    },
    /// Explicit per-link delays with a default for unlisted links.
    /// Keys are `(from, to)` pairs; lookups try `(from,to)` then
    /// `(to,from)` (symmetric links).
    PerLink {
        /// Explicit link delays.
        links: BTreeMap<(String, String), u64>,
        /// Delay for links not listed.
        default: u64,
    },
}

impl LatencyModel {
    /// Campus LAN preset: ~1 ms, light jitter.
    pub fn lan() -> LatencyModel {
        LatencyModel::Uniform { min: 1, max: 3 }
    }

    /// Wide-area preset: ~40–120 ms.
    pub fn wan() -> LatencyModel {
        LatencyModel::Uniform { min: 40, max: 120 }
    }

    /// Sample the one-way propagation delay for a link.
    pub fn delay_ms(&self, from: &str, to: &str, rng: &mut impl Rng) -> u64 {
        match self {
            LatencyModel::Constant(ms) => *ms,
            LatencyModel::Uniform { min, max } => {
                if min >= max {
                    *min
                } else {
                    rng.gen_range(*min..=*max)
                }
            }
            LatencyModel::PerLink { links, default } => links
                .get(&(from.to_string(), to.to_string()))
                .or_else(|| links.get(&(to.to_string(), from.to_string())))
                .copied()
                .unwrap_or(*default),
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::lan()
    }
}

/// Link bandwidth in bytes per millisecond (`None` = infinite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Encode, Decode, Default)]
pub struct Bandwidth(pub Option<u64>);

impl Bandwidth {
    /// 100 Mbit/s ≈ 12_500 bytes/ms.
    pub fn fast_ethernet() -> Bandwidth {
        Bandwidth(Some(12_500))
    }

    /// 1.5 Mbit/s uplink ≈ 190 bytes/ms (early-2000s WAN).
    pub fn t1() -> Bandwidth {
        Bandwidth(Some(190))
    }

    /// Serialization delay for a payload of `bytes`.
    pub fn transfer_ms(&self, bytes: u64) -> u64 {
        match self.0 {
            None => 0,
            Some(bpms) => bytes.div_ceil(bpms.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(5);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.delay_ms("a", "b", &mut r), 5);
        }
    }

    #[test]
    fn uniform_within_bounds_and_varies() {
        let m = LatencyModel::Uniform { min: 10, max: 20 };
        let mut r = rng();
        let samples: Vec<u64> = (0..100).map(|_| m.delay_ms("a", "b", &mut r)).collect();
        assert!(samples.iter().all(|&s| (10..=20).contains(&s)));
        assert!(samples.iter().any(|&s| s != samples[0]), "should jitter");
        // degenerate range
        let m = LatencyModel::Uniform { min: 7, max: 7 };
        assert_eq!(m.delay_ms("a", "b", &mut r), 7);
    }

    #[test]
    fn per_link_symmetric_lookup() {
        let mut links = BTreeMap::new();
        links.insert(("a".to_string(), "b".to_string()), 3);
        let m = LatencyModel::PerLink { links, default: 9 };
        let mut r = rng();
        assert_eq!(m.delay_ms("a", "b", &mut r), 3);
        assert_eq!(m.delay_ms("b", "a", &mut r), 3);
        assert_eq!(m.delay_ms("a", "c", &mut r), 9);
    }

    #[test]
    fn bandwidth_transfer_times() {
        assert_eq!(Bandwidth(None).transfer_ms(1 << 30), 0);
        assert_eq!(Bandwidth(Some(1000)).transfer_ms(0), 0);
        assert_eq!(Bandwidth(Some(1000)).transfer_ms(1), 1);
        assert_eq!(Bandwidth(Some(1000)).transfer_ms(1000), 1);
        assert_eq!(Bandwidth(Some(1000)).transfer_ms(1001), 2);
        assert!(
            Bandwidth::t1().transfer_ms(100_000) > Bandwidth::fast_ethernet().transfer_ms(100_000)
        );
    }

    #[test]
    fn presets_sensible() {
        let mut r = rng();
        let lan = LatencyModel::lan().delay_ms("a", "b", &mut r);
        let wan = LatencyModel::wan().delay_ms("a", "b", &mut r);
        assert!(lan < 10);
        assert!(wan >= 40);
    }
}
