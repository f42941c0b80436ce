//! Communication accounting.

use super::message::MsgKind;

/// Transfer direction, from the clients' perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Server → client (broadcast).
    Download,
    /// Client → server (upload).
    Upload,
}

/// Byte counters for one training run. Every scalar that crosses the
/// network is counted through a [`crate::comm::Transport`], so these
/// numbers are the ground truth behind Table III and the efficiency figures.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    down_bytes: u64,
    up_bytes: u64,
    /// Bytes attributable to δ maps only (regularizer state).
    delta_down_bytes: u64,
    delta_up_bytes: u64,
    messages: u64,
}

impl CommStats {
    pub(crate) fn new() -> Self {
        CommStats::default()
    }

    /// Records a model-plane transfer of `bytes`.
    pub(crate) fn record(&mut self, dir: Direction, bytes: u64) {
        match dir {
            Direction::Download => self.down_bytes += bytes,
            Direction::Upload => self.up_bytes += bytes,
        }
        self.messages += 1;
    }

    /// Records a δ-plane transfer of `bytes` (also counted in the totals).
    pub(crate) fn record_delta(&mut self, dir: Direction, bytes: u64) {
        match dir {
            Direction::Download => self.delta_down_bytes += bytes,
            Direction::Upload => self.delta_up_bytes += bytes,
        }
        self.record(dir, bytes);
    }

    /// Charges `bytes` of a `kind` message to the direction and plane the
    /// envelope names — how every transport books its traffic.
    pub(crate) fn charge(&mut self, kind: MsgKind, bytes: u64) {
        if kind.is_delta() {
            self.record_delta(kind.direction(), bytes);
        } else {
            self.record(kind.direction(), bytes);
        }
    }

    pub fn download_bytes(&self) -> u64 {
        self.down_bytes
    }

    pub fn upload_bytes(&self) -> u64 {
        self.up_bytes
    }

    pub fn total_bytes(&self) -> u64 {
        self.down_bytes + self.up_bytes
    }

    /// δ-map bytes (both directions) — the quantity of Table III.
    pub fn delta_bytes(&self) -> u64 {
        self.delta_down_bytes + self.delta_up_bytes
    }

    pub fn delta_download_bytes(&self) -> u64 {
        self.delta_down_bytes
    }

    pub fn delta_upload_bytes(&self) -> u64 {
        self.delta_up_bytes
    }

    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Folds handshake traffic metered outside the round loop (by the
    /// socket reactor) into the ledger. Handshakes come in hello/welcome
    /// pairs, so half of `msgs` went up and half came down; the first
    /// record on each side carries the accumulated bytes, the rest only
    /// bump the message count. Byte-exact by construction: the counters
    /// end up identical to charging each handshake frame individually.
    pub(crate) fn fold_handshakes(&mut self, up_bytes: u64, down_bytes: u64, msgs: u64) {
        for i in 0..msgs / 2 {
            self.record(Direction::Upload, if i == 0 { up_bytes } else { 0 });
            self.record(Direction::Download, if i == 0 { down_bytes } else { 0 });
        }
    }

    /// Difference against an earlier snapshot (per-round accounting).
    pub fn since(&self, snapshot: &CommStats) -> CommStats {
        CommStats {
            down_bytes: self.down_bytes - snapshot.down_bytes,
            up_bytes: self.up_bytes - snapshot.up_bytes,
            delta_down_bytes: self.delta_down_bytes - snapshot.delta_down_bytes,
            delta_up_bytes: self.delta_up_bytes - snapshot.delta_up_bytes,
            messages: self.messages - snapshot.messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_direction() {
        let mut s = CommStats::new();
        s.record(Direction::Download, 100);
        s.record(Direction::Upload, 40);
        s.record(Direction::Download, 1);
        assert_eq!(s.download_bytes(), 101);
        assert_eq!(s.upload_bytes(), 40);
        assert_eq!(s.total_bytes(), 141);
        assert_eq!(s.messages(), 3);
    }

    #[test]
    fn delta_bytes_tracked_separately_but_included_in_total() {
        let mut s = CommStats::new();
        s.record_delta(Direction::Download, 50);
        s.record(Direction::Upload, 10);
        assert_eq!(s.delta_bytes(), 50);
        assert_eq!(s.total_bytes(), 60);
    }

    /// Pins the double-count invariant: `record_delta` forwards to `record`,
    /// so δ bytes appear in BOTH the δ counters and the directional totals.
    /// Table III and the efficiency figures rely on `total_bytes` already
    /// including the δ plane — if this ever changes, every consumer that
    /// sums `total_bytes + delta_bytes` would silently double-charge.
    #[test]
    fn record_delta_double_counts_into_totals() {
        let mut s = CommStats::new();
        s.record_delta(Direction::Download, 30);
        s.record_delta(Direction::Upload, 12);
        // δ counters see exactly the δ traffic...
        assert_eq!(s.delta_download_bytes(), 30);
        assert_eq!(s.delta_upload_bytes(), 12);
        assert_eq!(s.delta_bytes(), 42);
        // ...and the directional totals include it too (the invariant).
        assert_eq!(s.download_bytes(), 30);
        assert_eq!(s.upload_bytes(), 12);
        assert_eq!(s.total_bytes(), 42);
    }

    /// A δ transfer is one message, not two, even though it increments two
    /// byte counters.
    #[test]
    fn record_delta_counts_one_message() {
        let mut s = CommStats::new();
        s.record_delta(Direction::Download, 8);
        assert_eq!(s.messages(), 1);
        s.record(Direction::Upload, 8);
        assert_eq!(s.messages(), 2);
        s.record_delta(Direction::Upload, 8);
        assert_eq!(s.messages(), 3);
    }

    #[test]
    fn charge_books_the_plane_and_direction_of_the_kind() {
        let mut s = CommStats::new();
        s.charge(MsgKind::ModelDown, 100);
        s.charge(MsgKind::CompressedUp, 7);
        s.charge(MsgKind::DeltaTableDown, 30);
        s.charge(MsgKind::CompressedDeltaUp, 12);
        assert_eq!(s.download_bytes(), 130);
        assert_eq!(s.upload_bytes(), 19);
        assert_eq!(s.delta_download_bytes(), 30);
        assert_eq!(s.delta_upload_bytes(), 12);
        assert_eq!(s.messages(), 4);
    }

    #[test]
    fn zero_byte_transfers_still_count_as_messages() {
        let mut s = CommStats::new();
        s.record(Direction::Download, 0);
        s.record_delta(Direction::Upload, 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.messages(), 2);
    }

    /// Folding N handshake pairs must equal charging each frame directly:
    /// same bytes, same message count, byte totals carried by the first
    /// record on each side.
    #[test]
    fn fold_handshakes_matches_per_frame_charging() {
        let mut folded = CommStats::new();
        folded.fold_handshakes(3 * 21, 3 * 64, 6);
        let mut direct = CommStats::new();
        for _ in 0..3 {
            direct.record(Direction::Upload, 21);
            direct.record(Direction::Download, 64);
        }
        assert_eq!(folded.upload_bytes(), direct.upload_bytes());
        assert_eq!(folded.download_bytes(), direct.download_bytes());
        assert_eq!(folded.messages(), direct.messages());
        // An odd leftover message (handshake cut off mid-pair) folds nothing.
        let mut odd = CommStats::new();
        odd.fold_handshakes(10, 10, 1);
        assert_eq!(odd.messages(), 0);
        assert_eq!(odd.total_bytes(), 0);
    }

    #[test]
    fn since_computes_differences() {
        let mut s = CommStats::new();
        s.record(Direction::Download, 10);
        let snap = s.clone();
        s.record(Direction::Upload, 5);
        s.record_delta(Direction::Upload, 7);
        let d = s.since(&snap);
        assert_eq!(d.download_bytes(), 0);
        assert_eq!(d.upload_bytes(), 12);
        assert_eq!(d.delta_bytes(), 7);
        assert_eq!(d.messages(), 2);
    }
}
