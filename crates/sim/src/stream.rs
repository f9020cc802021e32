//! Beat-level representation of streaming data.
//!
//! The unified stream interface of the paper (§3.2) "specifies the start and
//! end of the data stream" and carries sideband signals (masks, empty flags)
//! alongside the data. A [`StreamBeat`] is one clock cycle's worth of a
//! stream at some data width; packets are sequences of beats delimited by
//! `sop`/`eop`.

/// One beat of a data stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct StreamBeat {
    /// Number of valid bytes in this beat (≤ interface width / 8).
    pub valid_bytes: u16,
    /// Start-of-packet marker.
    pub sop: bool,
    /// End-of-packet marker.
    pub eop: bool,
    /// Opaque sideband/metadata (masks, empty flags, user bits).
    pub sideband: u64,
}

impl StreamBeat {
    /// A full-width beat in the middle of a packet.
    pub fn body(valid_bytes: u16) -> Self {
        StreamBeat {
            valid_bytes,
            sop: false,
            eop: false,
            sideband: 0,
        }
    }

    /// Builder-style start-of-packet marker.
    pub fn with_sop(mut self) -> Self {
        self.sop = true;
        self
    }

    /// Builder-style end-of-packet marker.
    pub fn with_eop(mut self) -> Self {
        self.eop = true;
        self
    }
}

/// Splits a packet of `packet_bytes` into beats for an interface
/// `width_bits` wide, marking `sop`/`eop`.
///
/// ```
/// use harmonia_sim::stream::packet_to_beats;
/// let beats = packet_to_beats(100, 512); // 64-byte beats
/// assert_eq!(beats.len(), 2);
/// assert!(beats[0].sop && !beats[0].eop);
/// assert!(beats[1].eop);
/// assert_eq!(beats[1].valid_bytes, 36);
/// ```
///
/// # Panics
///
/// Panics if `packet_bytes` is zero or `width_bits` is not a multiple of 8.
pub fn packet_to_beats(packet_bytes: u32, width_bits: u32) -> Vec<StreamBeat> {
    assert!(packet_bytes > 0, "empty packets are not representable");
    assert!(
        width_bits >= 8 && width_bits.is_multiple_of(8),
        "interface width must be a whole number of bytes"
    );
    let bpb = width_bits / 8;
    let n = packet_bytes.div_ceil(bpb);
    (0..n)
        .map(|i| {
            let remaining = packet_bytes - i * bpb;
            let mut beat = StreamBeat::body(remaining.min(bpb) as u16);
            if i == 0 {
                beat = beat.with_sop();
            }
            if i == n - 1 {
                beat = beat.with_eop();
            }
            beat
        })
        .collect()
}

/// Number of beats a packet occupies on an interface of `width_bits`: the
/// closed form the beat expansion is checked against.
#[cfg(test)]
fn beats_for_packet(packet_bytes: u32, width_bits: u32) -> u64 {
    assert!(width_bits >= 8 && width_bits.is_multiple_of(8));
    u64::from(packet_bytes.div_ceil(width_bits / 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_beat_packet_has_both_markers() {
        let beats = packet_to_beats(64, 512);
        assert_eq!(beats.len(), 1);
        assert!(beats[0].sop && beats[0].eop);
        assert_eq!(beats[0].valid_bytes, 64);
    }

    #[test]
    fn exact_multiple_fills_all_beats() {
        let beats = packet_to_beats(128, 512);
        assert_eq!(beats.len(), 2);
        assert!(beats.iter().all(|b| b.valid_bytes == 64));
    }

    #[test]
    fn narrow_interface_many_beats() {
        let beats = packet_to_beats(1500, 128); // 16-byte beats
        assert_eq!(beats.len(), 94);
        assert_eq!(beats.last().unwrap().valid_bytes, 1500 - 93 * 16);
        assert_eq!(
            beats.iter().map(|b| u32::from(b.valid_bytes)).sum::<u32>(),
            1500
        );
    }

    #[test]
    fn beats_for_packet_matches_expansion() {
        for (size, width) in [(64u32, 512u32), (65, 512), (1500, 128), (9000, 2048)] {
            assert_eq!(
                beats_for_packet(size, width),
                packet_to_beats(size, width).len() as u64
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty packets")]
    fn zero_length_packet_rejected() {
        let _ = packet_to_beats(0, 512);
    }

    #[test]
    fn builder_helpers() {
        let b = StreamBeat::body(8).with_sop();
        assert!(b.sop && !b.eop);
        assert!(b.with_eop().eop);
    }
}
