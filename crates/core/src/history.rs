//! Training history: the per-round record behind every curve and table.

/// One row of a training run.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    pub round: usize,
    /// Mean local data loss over the participating clients.
    pub train_loss: f32,
    /// Mean regularizer loss (0 for non-regularized algorithms).
    pub reg_loss: f32,
    /// Test loss, when evaluated this round.
    pub test_loss: Option<f32>,
    /// Test accuracy, when evaluated this round.
    pub test_acc: Option<f32>,
    /// Wall-clock seconds of the round proper — selection, every broadcast,
    /// local training, the δ syncs, upload and fold — *excluding* the
    /// evaluation that may follow it (that is the `eval` span's time).
    pub seconds: f64,
    /// Bytes downloaded by clients this round.
    pub down_bytes: u64,
    /// Bytes uploaded by clients this round.
    pub up_bytes: u64,
    /// δ-plane bytes this round (Table III).
    pub delta_bytes: u64,
    /// Number of clients selected for the round.
    pub participants: usize,
    /// Clients whose upload reached the aggregation (== `participants` on a
    /// perfect transport).
    pub delivered: usize,
    /// Messages dropped by the transport this round (loss or deadline).
    pub dropped_msgs: u64,
    /// Retransmissions the transport performed this round.
    pub retries: u64,
    /// Server-process resident bytes at the end of the round (0 when the
    /// platform exposes no RSS counter).
    pub rss_bytes: u64,
    /// Server-process peak resident bytes observed so far in the run (0
    /// when unavailable) — the memory ceiling the scaling work tracks.
    pub peak_rss_bytes: u64,
}

/// A completed run.
#[derive(Clone, Debug, Default)]
pub struct History {
    records: Vec<RoundRecord>,
}

impl History {
    pub(crate) fn new() -> Self {
        History::default()
    }

    pub(crate) fn push(&mut self, r: RoundRecord) {
        self.records.push(r);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Last evaluated test accuracy.
    pub fn final_accuracy(&self) -> Option<f32> {
        self.records.iter().rev().find_map(|r| r.test_acc)
    }

    /// `(round, accuracy)` points of the test-accuracy curve.
    pub fn accuracy_curve(&self) -> Vec<(usize, f32)> {
        self.records
            .iter()
            .filter_map(|r| r.test_acc.map(|a| (r.round, a)))
            .collect()
    }

    /// First round (1-based count) at which test accuracy reached `target`,
    /// or `None` (Fig. 10a/b "minimal rounds needed").
    pub fn rounds_to_accuracy(&self, target: f32) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.test_acc.is_some_and(|a| a >= target))
            .map(|r| r.round + 1)
    }

    /// Total bytes communicated.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.down_bytes + r.up_bytes).sum()
    }

    /// Total δ-plane bytes.
    pub fn total_delta_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.delta_bytes).sum()
    }

    /// Mean delivered-participant fraction (`delivered / participants`)
    /// over rounds with at least one selected client — 1.0 on a perfect
    /// transport.
    pub fn mean_delivery_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.participants > 0)
            .map(|r| r.delivered as f64 / r.participants as f64)
            .collect();
        if rates.is_empty() {
            return 1.0;
        }
        rates.iter().sum::<f64>() / rates.len() as f64
    }

    /// Mean wall-clock seconds per round.
    pub fn mean_round_seconds(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.seconds).sum::<f64>() / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: usize, acc: Option<f32>) -> RoundRecord {
        RoundRecord {
            round,
            train_loss: 1.0 / (round + 1) as f32,
            reg_loss: 0.0,
            test_loss: acc.map(|a| 1.0 - a),
            test_acc: acc,
            seconds: 0.5,
            down_bytes: 100,
            up_bytes: 50,
            delta_bytes: 10,
            participants: 4,
            delivered: 4,
            dropped_msgs: 0,
            retries: 0,
            rss_bytes: 0,
            peak_rss_bytes: 0,
        }
    }

    #[test]
    fn accuracy_accessors() {
        let mut h = History::new();
        h.push(rec(0, Some(0.3)));
        h.push(rec(1, None));
        h.push(rec(2, Some(0.8)));
        h.push(rec(3, Some(0.7)));
        assert_eq!(h.final_accuracy(), Some(0.7));
        assert_eq!(h.accuracy_curve().len(), 3);
    }

    #[test]
    fn rounds_to_accuracy_finds_first_crossing() {
        let mut h = History::new();
        h.push(rec(0, Some(0.3)));
        h.push(rec(1, Some(0.6)));
        h.push(rec(2, Some(0.9)));
        assert_eq!(h.rounds_to_accuracy(0.5), Some(2));
        assert_eq!(h.rounds_to_accuracy(0.95), None);
    }

    #[test]
    fn byte_totals() {
        let mut h = History::new();
        h.push(rec(0, None));
        h.push(rec(1, None));
        assert_eq!(h.total_bytes(), 300);
        assert_eq!(h.total_delta_bytes(), 20);
        assert!((h.mean_round_seconds() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delivery_rate_averages_over_rounds() {
        let mut h = History::new();
        assert_eq!(h.mean_delivery_rate(), 1.0, "empty history is perfect");
        let mut a = rec(0, None);
        a.delivered = 2;
        let b = rec(1, None);
        h.push(a);
        h.push(b);
        assert!((h.mean_delivery_rate() - 0.75).abs() < 1e-12, "(0.5 + 1)/2");
    }
}
