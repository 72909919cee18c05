//! Retry/backoff policy for the reliable-transfer layer.
//!
//! Navigator handoffs (naplet transfers) and post-office redelivery
//! share one policy: a per-transfer acknowledgement timer with capped
//! exponential backoff and deterministic jitter. After [`RetryPolicy::max_retries`] attempts the
//! navigator gives up — an `Alt` itinerary falls back to its next
//! branch, otherwise the naplet is parked with a navigation-log failure
//! entry; a message is counted as undeliverable.

use serde::{Deserialize, Serialize};

/// Timeout/retry parameters for acknowledged transfers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Acknowledgement timeout for the first attempt (ms).
    pub base_timeout_ms: u64,
    /// Cap on the exponentially growing timeout (ms).
    pub max_timeout_ms: u64,
    /// Total send attempts (first try included) before giving up.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout_ms: 200,
            max_timeout_ms: 3_200,
            max_retries: 6,
        }
    }
}

impl RetryPolicy {
    /// Capped exponential backoff for a 1-based attempt number:
    /// `min(base << (attempt-1), max)`. Delegates to the shared
    /// [`naplet_net::backoff`] engine so acknowledgement timers and
    /// TCP reconnects back off identically.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        naplet_net::backoff::capped_backoff_ms(self.base_timeout_ms, self.max_timeout_ms, attempt)
    }

    /// Backoff plus deterministic jitter in `[0, backoff/4]`, keyed on
    /// the transfer identity. Jitter de-synchronizes retry storms while
    /// keeping discrete-event runs reproducible.
    pub fn jittered_backoff_ms(&self, key: u64, attempt: u32) -> u64 {
        naplet_net::backoff::jittered_backoff_ms(
            self.base_timeout_ms,
            self.max_timeout_ms,
            key,
            attempt,
        )
    }
}

/// Jitter key for a timer that belongs to a naplet instead of a
/// transfer (arrival registrations): a multiplicative hash over the
/// id's canonical text, folded as `Display` writes it — nothing is
/// formatted into a `String` first.
pub(crate) fn naplet_jitter_key(id: &naplet_core::NapletId) -> u64 {
    use std::fmt::Write;

    struct Fold(u64);
    impl Write for Fold {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = s.bytes().fold(self.0, |h, b| {
                h.wrapping_mul(131).wrapping_add(u64::from(b))
            });
            Ok(())
        }
    }
    let mut key = Fold(0x5245_4749);
    let _ = write!(key, "{id}"); // `Fold` never fails
    key.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key is what hashing the formatted id always gave, so seeded
    /// jitter — and every seeded trace — is unchanged.
    #[test]
    fn naplet_jitter_key_is_the_hash_of_the_formatted_id() {
        use naplet_core::clock::Millis;

        let original = naplet_core::NapletId::new("czxu", "home.host", Millis(1_234_567)).unwrap();
        let clone = original.clone_child(2).clone_child(11);
        for id in [original, clone] {
            let formatted = id.to_string().bytes().fold(0x5245_4749u64, |h, b| {
                h.wrapping_mul(131).wrapping_add(u64::from(b))
            });
            assert_eq!(naplet_jitter_key(&id), formatted, "{id}");
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(1), 200);
        assert_eq!(p.backoff_ms(2), 400);
        assert_eq!(p.backoff_ms(3), 800);
        assert_eq!(p.backoff_ms(4), 1_600);
        assert_eq!(p.backoff_ms(5), 3_200);
        assert_eq!(p.backoff_ms(6), 3_200); // capped
        assert_eq!(p.backoff_ms(60), 3_200); // shift amount clamped
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..=6 {
            for key in [0u64, 1, 42, u64::MAX] {
                let a = p.jittered_backoff_ms(key, attempt);
                let b = p.jittered_backoff_ms(key, attempt);
                assert_eq!(a, b, "jitter must be deterministic");
                let base = p.backoff_ms(attempt);
                assert!(a >= base && a <= base + base / 4 + 1);
            }
        }
        // different keys should usually jitter differently
        assert_ne!(
            p.jittered_backoff_ms(1, 3),
            p.jittered_backoff_ms(2, 3),
            "distinct transfers should de-synchronize"
        );
    }
}
