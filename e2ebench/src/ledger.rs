//! The exactly-once delivery checker of the TCP workloads.
//!
//! Every delivery the benchmark expects is registered up front as
//! `(subscription, publish key) → value`; each observed delivery is then
//! classified, and whatever was expected but never seen is missing.

use std::collections::{BTreeMap, BTreeSet};

/// How one observed delivery compares with the expectation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Expected, first copy, right value.
    Ok,
    /// Expected, but already seen.
    Duplicate,
    /// Expected, first copy, but carrying another value.
    WrongValue,
    /// Never expected.
    Unexpected,
}

/// Expected deliveries and what has arrived of them.
#[derive(Debug, Default)]
pub struct Ledger {
    expected: BTreeMap<(u64, u64), i64>,
    seen: BTreeSet<(u64, u64)>,
    failures: u64,
}

impl Ledger {
    /// Registers that subscription `sub` must receive publish `key`
    /// carrying `value`, exactly once.
    pub fn expect(&mut self, sub: u64, key: u64, value: i64) {
        self.expected.insert((sub, key), value);
    }

    /// Classifies one observed delivery and records it.
    pub fn observe(&mut self, sub: u64, key: u64, value: i64) -> Verdict {
        let verdict = match self.expected.get(&(sub, key)) {
            None => Verdict::Unexpected,
            Some(_) if !self.seen.insert((sub, key)) => Verdict::Duplicate,
            Some(&v) if v != value => Verdict::WrongValue,
            Some(_) => Verdict::Ok,
        };
        if verdict != Verdict::Ok {
            self.failures += 1;
        }
        verdict
    }

    /// Expected deliveries registered so far.
    pub fn expected(&self) -> u64 {
        self.expected.len() as u64
    }

    /// Expected deliveries that have not (yet) been observed.
    pub fn missing(&self) -> u64 {
        (self.expected.len()
            - self
                .expected
                .keys()
                .filter(|k| self.seen.contains(k))
                .count()) as u64
    }

    /// Observed deliveries that were not `Ok`.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic stream: 3 subscriptions × 50 publishes.
    fn stream() -> (Ledger, Vec<(u64, u64, i64)>) {
        let mut ledger = Ledger::default();
        let mut deliveries = Vec::new();
        for key in 0..50u64 {
            for sub in 0..3u64 {
                let value = (key * 31 + sub) as i64;
                ledger.expect(sub, key, value);
                deliveries.push((sub, key, value));
            }
        }
        (ledger, deliveries)
    }

    #[test]
    fn clean_stream_passes() {
        let (mut ledger, deliveries) = stream();
        for (s, k, v) in deliveries {
            assert_eq!(ledger.observe(s, k, v), Verdict::Ok);
        }
        assert_eq!((ledger.missing(), ledger.failures()), (0, 0));
        assert_eq!(ledger.expected(), 150);
    }

    #[test]
    fn injected_duplicate_is_caught() {
        let (mut ledger, mut deliveries) = stream();
        deliveries.insert(77, deliveries[20]);
        let verdicts: Vec<Verdict> = deliveries
            .iter()
            .map(|&(s, k, v)| ledger.observe(s, k, v))
            .collect();
        assert_eq!(
            verdicts
                .iter()
                .filter(|v| **v == Verdict::Duplicate)
                .count(),
            1
        );
        assert_eq!((ledger.missing(), ledger.failures()), (0, 1));
    }

    #[test]
    fn injected_loss_is_caught() {
        let (mut ledger, mut deliveries) = stream();
        deliveries.remove(42);
        for (s, k, v) in deliveries {
            ledger.observe(s, k, v);
        }
        assert_eq!((ledger.missing(), ledger.failures()), (1, 0));
    }

    #[test]
    fn wrong_value_and_stray_delivery_are_caught() {
        let (mut ledger, _) = stream();
        assert_eq!(ledger.observe(1, 7, -1), Verdict::WrongValue);
        assert_eq!(ledger.observe(9, 7, 0), Verdict::Unexpected);
        assert_eq!(ledger.failures(), 2);
    }
}
