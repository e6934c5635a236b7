//! The MMT extension layout against a tiny executable model, over every
//! feature set there is.
//!
//! The header is "a variable number of fixed-size, optional fields (in a
//! fixed order) that depend on the activated features" (§5.2): ten feature
//! bits, so 1 024 layouts, few enough to check all of them. The model below
//! is the fixed-order size list and nothing else; production code derives
//! the same offsets without a table.
//!
//! The last tests pin the order in which the decoder's checks fire, which
//! callers see as the `Error` a damaged header produces.

use mmt::wire::mmt::{
    CoreHeader, ExperimentId, ExtLayout, Features, MmtRepr, RetransmitExt, TimelinessExt,
    CONFIG_CONTROL_V0, CONFIG_DATA_V0, CORE_HEADER_LEN,
};
use mmt::wire::{Error, Ipv4Address};

/// The model: every feature in bit order with the bytes its slot takes.
const SLOTS: [(Features, usize); 10] = [
    (Features::SEQUENCE, 8),
    (Features::RETRANSMIT, 6),
    (Features::TIMELINESS, 12),
    (Features::AGE, 8),
    (Features::PACING, 4),
    (Features::BACKPRESSURE, 4),
    (Features::DUPLICATED, 0),
    (Features::ENCRYPTED, 0),
    (Features::ACK_NAK, 0),
    (Features::PRIORITY, 4),
];

/// Offset of `bit`'s slot (if active) and the total, by walking the list.
fn model(features: Features, bit: Features) -> (Option<usize>, usize) {
    let (mut at, mut off) = (None, 0);
    for (b, size) in SLOTS {
        if features.contains(b) {
            if b == bit {
                at = Some(off);
            }
            off += size;
        }
    }
    (at, off)
}

fn all_feature_sets() -> impl Iterator<Item = Features> {
    (0..=Features::ALL_KNOWN.bits()).map(|bits| Features::from_bits(bits).unwrap())
}

/// A header with exactly `features` active, every value a function of the
/// set so that a slot read at the wrong offset cannot pass for the right one.
fn repr_with(features: Features) -> MmtRepr {
    let n = u64::from(features.bits());
    let mut r = MmtRepr::data(ExperimentId::new(7, 3));
    if features.contains(Features::SEQUENCE) {
        r = r.with_sequence(0x1111_0000_0000_0000 | n);
    }
    if features.contains(Features::RETRANSMIT) {
        r = r.with_retransmit(Ipv4Address::new(10, 2, 0, n as u8), 0x2200 | n as u16);
    }
    if features.contains(Features::TIMELINESS) {
        r = r.with_timeliness(
            0x3333_0000_0000_0000 | n,
            Ipv4Address::new(10, 3, 0, n as u8),
        );
    }
    if features.contains(Features::AGE) {
        r = r.with_age(0x0044_0000_0000_0000 | n, n % 2 == 1);
    }
    if features.contains(Features::PACING) {
        r = r.with_pacing(0x5500_0000 | n as u32);
    }
    if features.contains(Features::BACKPRESSURE) {
        r = r.with_backpressure(0x6600_0000 | n as u32);
    }
    if features.contains(Features::PRIORITY) {
        r = r.with_priority(0x70 | (n as u8 & 0x0f));
    }
    r.with_flags(features & (Features::DUPLICATED | Features::ENCRYPTED | Features::ACK_NAK))
}

#[test]
fn layout_matches_the_model_for_every_feature_set() {
    for f in all_feature_sets() {
        let l = ExtLayout::of(f);
        let total = model(f, Features::EMPTY).1;
        assert_eq!(l.total, total, "{f}: total");
        for (bit, got) in [
            (Features::SEQUENCE, l.sequence),
            (Features::RETRANSMIT, l.retransmit),
            (Features::TIMELINESS, l.timeliness),
            (Features::AGE, l.age),
            (Features::PACING, l.pacing),
            (Features::BACKPRESSURE, l.backpressure),
            (Features::PRIORITY, l.priority),
        ] {
            assert_eq!(got, model(f, bit).0, "{f}: offset of {bit}");
        }
    }
}

#[test]
fn every_feature_set_round_trips_and_the_view_agrees() {
    for f in all_feature_sets() {
        let repr = repr_with(f);
        assert_eq!(repr.features, f);
        let len = CORE_HEADER_LEN + model(f, Features::EMPTY).1;
        assert_eq!(repr.header_len(), len, "{f}");

        // A poisoned buffer: emit must write every header byte itself.
        let mut buf = vec![0xA5u8; len + 3];
        assert_eq!(repr.encode_into(&mut buf), Ok(len), "{f}");
        assert_eq!(&buf[len..], &[0xA5; 3], "{f}: emit wrote past the header");

        let parsed = MmtRepr::parse(&buf).unwrap();
        assert_eq!(parsed, repr, "{f}");
        let (decoded, payload) = MmtRepr::decode_from(&buf).unwrap();
        assert_eq!((decoded, payload), (repr, &[0xA5u8; 3][..]), "{f}");

        let view = CoreHeader::new_checked(&buf[..]).unwrap();
        assert_eq!(view.features(), f);
        assert_eq!(view.header_len(), len, "{f}");
        assert_eq!(view.experiment(), repr.experiment, "{f}");
        assert_eq!(view.sequence(), repr.sequence(), "{f}");
        assert_eq!(view.retransmit(), repr.retransmit(), "{f}");
        assert_eq!(view.timeliness(), repr.timeliness(), "{f}");
        assert_eq!(view.age(), repr.age(), "{f}");
        assert_eq!(view.pacing_mbps(), repr.pacing_mbps(), "{f}");
        assert_eq!(
            view.backpressure_window(),
            repr.backpressure_window(),
            "{f}"
        );
        assert_eq!(view.priority_class(), repr.priority_class(), "{f}");
        assert_eq!(view.payload(), &[0xA5; 3], "{f}");

        // The view's setters land in the slots the emitter wrote, and
        // refuse exactly the absent ones.
        let mut rewritten = vec![0u8; len];
        let mut w = CoreHeader::new_unchecked(&mut rewritten[..]);
        w.set_config_id(CONFIG_DATA_V0);
        w.set_config_data(f.bits());
        w.set_experiment(repr.experiment);
        let wrote = [
            w.set_sequence(repr.sequence().unwrap_or(0)),
            w.set_retransmit(repr.retransmit().unwrap_or(RetransmitExt {
                source: Ipv4Address::UNSPECIFIED,
                port: 0,
            })),
            w.set_timeliness(repr.timeliness().unwrap_or(TimelinessExt {
                deadline_ns: 0,
                notify: Ipv4Address::UNSPECIFIED,
            })),
            w.set_age(repr.age().unwrap_or_default()),
            w.set_pacing_mbps(repr.pacing_mbps().unwrap_or(0)),
            w.set_backpressure_window(repr.backpressure_window().unwrap_or(0)),
            w.set_priority_class(repr.priority_class().unwrap_or(0)),
        ];
        let active = [
            Features::SEQUENCE,
            Features::RETRANSMIT,
            Features::TIMELINESS,
            Features::AGE,
            Features::PACING,
            Features::BACKPRESSURE,
            Features::PRIORITY,
        ]
        .map(|bit| f.contains(bit));
        assert_eq!(wrote, active, "{f}");
        assert_eq!(rewritten, &buf[..len], "{f}: setters and emit disagree");
    }
}

/// Every entry point that validates a header.
fn errors(buf: &[u8]) -> [Option<Error>; 3] {
    [
        MmtRepr::parse(buf).err(),
        MmtRepr::decode_from(buf).err(),
        CoreHeader::new_checked(buf).err(),
    ]
}

#[test]
fn truncation_reports_the_core_then_the_full_header() {
    let repr = repr_with(Features::ALL_KNOWN);
    let len = repr.header_len();
    assert_eq!(len, 54);
    let mut buf = vec![0u8; len];
    repr.emit(&mut buf).unwrap();
    for got in 0..len {
        // Short of the core header, the decoder cannot know the features
        // yet; past it, it asks for everything they declare.
        let needed = if got < CORE_HEADER_LEN {
            CORE_HEADER_LEN
        } else {
            len
        };
        let want = Some(Error::Truncated { needed, got });
        assert_eq!(errors(&buf[..got]), [want; 3], "cut at {got}");
    }
    assert_eq!(errors(&buf), [None; 3]);
}

#[test]
fn truncated_wins_over_malformed_wins_over_nothing() {
    let repr = repr_with(Features::SEQUENCE | Features::AGE);
    let len = repr.header_len();
    let mut buf = vec![0u8; len];
    repr.emit(&mut buf).unwrap();
    buf[2] |= 0x04; // reserved bit 10

    // Whole header present: the strict parsers reject the reserved bit, the
    // forwarding view tolerates it.
    let malformed = Some(Error::Malformed("reserved feature bit set"));
    assert_eq!(errors(&buf), [malformed, malformed, None]);

    // Cut short: the length check fires first, sized from the known bits.
    let got = len - 1;
    let want = Some(Error::Truncated { needed: len, got });
    assert_eq!(errors(&buf[..got]), [want; 3]);
}

#[test]
fn unknown_config_id_is_reported_after_the_core_length() {
    // Config data that would declare every extension under the data id.
    let mut buf = [0u8; CORE_HEADER_LEN];
    buf[0] = 0x7F;
    buf[2] = 0x03;
    buf[3] = 0xFF;
    let unknown = Some(Error::UnknownVersion(0x7F));
    assert_eq!(errors(&buf), [unknown, unknown, None]);
    let want = Some(Error::Truncated { needed: 8, got: 7 });
    assert_eq!(errors(&buf[..7]), [want; 3]);
}

#[test]
fn control_header_does_not_read_config_data_as_features() {
    // A control type whose bits, under the data id, would be SEQUENCE..=ENCRYPTED.
    let mut buf = [0u8; CORE_HEADER_LEN];
    MmtRepr::control(ExperimentId::new(2, 0), 0xFF)
        .emit(&mut buf)
        .unwrap();
    assert_eq!(buf[0], CONFIG_CONTROL_V0);
    let (repr, rest) = MmtRepr::decode_from(&buf).unwrap();
    assert_eq!(repr.control_type(), Some(0xFF));
    assert_eq!(repr.features, Features::EMPTY);
    assert_eq!(repr.header_len(), CORE_HEADER_LEN);
    assert!(rest.is_empty());
    let view = CoreHeader::new_checked(&buf[..]).unwrap();
    assert_eq!(view.header_len(), CORE_HEADER_LEN);
    assert_eq!(view.sequence(), None);

    // The same bytes under the data id declare 42 bytes of extensions.
    buf[0] = CONFIG_DATA_V0;
    let want = Some(Error::Truncated { needed: 50, got: 8 });
    assert_eq!(errors(&buf), [want; 3]);
}
