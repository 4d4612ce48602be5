//! Deadlines for an event loop: who times out next, and when to wake.
//!
//! [`DeadlineWheel`] is an ordered multi-map from [`Instant`] to a
//! caller-chosen payload. The event loop asks
//! [`next_deadline`](DeadlineWheel::next_deadline) to bound its poll wait, then calls
//! [`expire`](DeadlineWheel::expire) after every wait to collect whatever
//! came due. Timers are cancelled by the [`TimerKey`] returned at arm time;
//! cancellation and expiry both detach the key, so a stale key is a cheap
//! no-op rather than a misfire.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::instruments;

/// Identity of one armed timer, returned by [`DeadlineWheel::arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKey(u64);

/// An ordered deadline map with O(log n) arm/cancel and O(log n) per
/// expired timer.
pub struct DeadlineWheel<T> {
    /// Monotonic sequence breaking ties between equal deadlines, so two
    /// timers armed for the same instant expire in arm order.
    seq: u64,
    by_deadline: BTreeMap<(Instant, u64), T>,
    by_key: HashMap<u64, Instant>,
}

impl<T> Default for DeadlineWheel<T> {
    fn default() -> Self {
        DeadlineWheel::new()
    }
}

impl<T> DeadlineWheel<T> {
    /// An empty wheel.
    pub fn new() -> DeadlineWheel<T> {
        DeadlineWheel {
            seq: 0,
            by_deadline: BTreeMap::new(),
            by_key: HashMap::new(),
        }
    }

    /// Arms a timer for `at` carrying `payload`; keep the key to cancel.
    pub fn arm(&mut self, at: Instant, payload: T) -> TimerKey {
        let seq = self.seq;
        self.seq += 1;
        self.by_deadline.insert((at, seq), payload);
        self.by_key.insert(seq, at);
        TimerKey(seq)
    }

    /// Cancels an armed timer; returns its payload, or `None` if the key
    /// already expired or was cancelled.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let at = self.by_key.remove(&key.0)?;
        self.by_deadline.remove(&(at, key.0))
    }

    /// The earliest armed deadline, for bounding the poll wait.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.by_deadline.keys().next().map(|(at, _)| *at)
    }

    /// Detaches every timer due at or before `now` and appends
    /// `(key, payload)` pairs to `expired`, in deadline order. Returns how
    /// many expired.
    pub fn expire(&mut self, now: Instant, expired: &mut Vec<(TimerKey, T)>) -> usize {
        let mut count = 0;
        while let Some(entry) = self.by_deadline.first_entry() {
            let (at, seq) = *entry.key();
            if at > now {
                break;
            }
            let payload = entry.remove();
            self.by_key.remove(&seq);
            expired.push((TimerKey(seq), payload));
            count += 1;
        }
        if count > 0 {
            instruments().timers_expired.add(count as u64);
        }
        count
    }

    /// How many timers are armed.
    pub fn len(&self) -> usize {
        self.by_deadline.len()
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.by_deadline.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn expires_in_deadline_order_with_stable_ties() {
        let mut wheel = DeadlineWheel::new();
        let base = Instant::now();
        wheel.arm(base + Duration::from_millis(20), "late");
        wheel.arm(base + Duration::from_millis(10), "early-a");
        wheel.arm(base + Duration::from_millis(10), "early-b");

        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(10))
        );

        let mut expired = Vec::new();
        let n = wheel.expire(base + Duration::from_millis(15), &mut expired);
        assert_eq!(n, 2);
        let payloads: Vec<_> = expired.iter().map(|(_, p)| *p).collect();
        assert_eq!(payloads, ["early-a", "early-b"], "ties expire in arm order");
        assert_eq!(wheel.len(), 1);

        expired.clear();
        wheel.expire(base + Duration::from_millis(25), &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1, "late");
        assert!(wheel.is_empty());
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut wheel = DeadlineWheel::new();
        let base = Instant::now();
        let key = wheel.arm(base, 7u32);
        assert_eq!(wheel.cancel(key), Some(7));
        assert_eq!(wheel.cancel(key), None, "double cancel is a no-op");

        let mut expired = Vec::new();
        assert_eq!(wheel.expire(base + Duration::from_secs(1), &mut expired), 0);
        assert!(expired.is_empty());
    }

    /// Expiry order is fully determined by `(deadline, arm order)` even
    /// when many timers collide on few distinct deadlines — the regime an
    /// event loop hits when a burst of connections arms identical idle
    /// timeouts within one tick.
    #[test]
    fn expiry_order_is_deadline_then_arm_order_under_duplicates() {
        use quickprop::{check, Config};

        check(
            "wheel expiry order under duplicate deadlines",
            Config::default().with_cases(48).with_seed(0xD11E),
            |g| {
                // Few distinct offsets over many timers forces duplicates;
                // a cancel mask exercises detachment mid-sequence.
                g.vec_of(1..64, |g| (g.u64_in(0..=4), g.bool(0.2)))
            },
            |timers| {
                let base = Instant::now();
                let mut wheel = DeadlineWheel::new();
                let mut keys = Vec::new();
                for (i, (offset, _)) in timers.iter().enumerate() {
                    keys.push(wheel.arm(base + Duration::from_millis(*offset), i));
                }
                let mut kept: Vec<(u64, usize)> = Vec::new();
                for (i, (offset, cancel)) in timers.iter().enumerate() {
                    if *cancel {
                        if wheel.cancel(keys[i]) != Some(i) {
                            return Err(format!("cancel of timer {i} lost its payload"));
                        }
                    } else {
                        kept.push((*offset, i));
                    }
                }
                // Stable sort mirrors the contract: deadline first, then
                // arm order among equal deadlines.
                kept.sort_by_key(|&(offset, _)| offset);
                let expected: Vec<usize> = kept.iter().map(|&(_, i)| i).collect();

                let mut expired = Vec::new();
                wheel.expire(base + Duration::from_millis(10), &mut expired);
                let got: Vec<usize> = expired.iter().map(|&(_, payload)| payload).collect();
                if got != expected {
                    return Err(format!("expiry order {got:?}, expected {expected:?}"));
                }
                if !wheel.is_empty() {
                    return Err("wheel not drained after expiring everything".to_string());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn expired_keys_go_stale() {
        let mut wheel = DeadlineWheel::new();
        let base = Instant::now();
        let key = wheel.arm(base, ());
        let mut expired = Vec::new();
        wheel.expire(base, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(wheel.cancel(key), None, "expired key no longer cancels");
    }
}
