//! [`Frame`]: the immutable bytes a [`Packet`](crate::Packet) carries.
//!
//! A sender that keeps what it sent — a QoS 1 message held for
//! redelivery — wants the packet in flight and its own copy to be the
//! same bytes, and a 9-byte acknowledgement should not cost an
//! allocation at all. A frame is therefore one of three forms behind one
//! read-only view:
//!
//! * **inline**: up to 15 bytes stored in the frame itself;
//! * **owned**: a moved-in `Vec<u8>`, so every existing `Vec` payload
//!   becomes a frame for free;
//! * **shared**: an `Arc<[u8]>`, copied once by
//!   [`Frame::copy_from_slice`] (or, from a header and a body, by
//!   [`Frame::concat`]) and cloned in O(1) thereafter.
//!
//! Cloning an inline or shared frame never allocates; cloning an owned
//! one copies it, as cloning the `Vec` did. Equality compares bytes, not
//! forms. A `Frame` is the size of a `Vec<u8>` (asserted below), so a
//! packet, and the event-arena slot that holds it, is no larger than a
//! `Vec` payload made it.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Longest frame stored inline. An `Arc<[u8]>` takes 16 bytes; 15 bytes
/// and a length byte fill the same space, so an inline frame costs no
/// allocation and no size. Every 9-byte acknowledgement of the pub/sub
/// wire fits.
const INLINE_CAP: usize = 15;

/// Immutable packet bytes: inline, a moved-in `Vec<u8>`, or shared.
///
/// ```
/// use simnet::Frame;
///
/// let shared = Frame::copy_from_slice(&[7; 64]);
/// let again = shared.clone(); // the same allocation
/// assert_eq!(again, Frame::from(vec![7; 64]));
/// assert_eq!(&Frame::copy_from_slice(b"ack")[..], b"ack");
/// ```
#[derive(Clone)]
pub struct Frame(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE_CAP] },
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Frame>() == std::mem::size_of::<Vec<u8>>());

impl Frame {
    /// Copies `bytes` into a frame whose clones share them: inline when
    /// they fit in 15 bytes, otherwise one `Arc<[u8]>` allocation.
    pub fn copy_from_slice(bytes: &[u8]) -> Frame {
        if bytes.len() <= INLINE_CAP {
            let mut inline = [0; INLINE_CAP];
            inline[..bytes.len()].copy_from_slice(bytes);
            Frame(Repr::Inline {
                len: bytes.len() as u8,
                bytes: inline,
            })
        } else {
            Frame(Repr::Shared(Arc::from(bytes)))
        }
    }

    /// The bytes of `head` followed by `body` as one frame whose clones
    /// share them: inline when they fit in 15 bytes, otherwise one
    /// `Arc<[u8]>` allocation that both are copied into.
    pub fn concat(head: &[u8], body: &[u8]) -> Frame {
        let len = head.len() + body.len();
        if len <= INLINE_CAP {
            let mut inline = [0; INLINE_CAP];
            inline[..head.len()].copy_from_slice(head);
            inline[head.len()..len].copy_from_slice(body);
            return Frame(Repr::Inline {
                len: len as u8,
                bytes: inline,
            });
        }
        // Zeroed in one allocation (an exact-size iterator), then filled
        // by two copies while this is its only owner.
        let mut shared: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        let bytes = Arc::get_mut(&mut shared).expect("a new allocation has one owner");
        bytes[..head.len()].copy_from_slice(head);
        bytes[head.len()..].copy_from_slice(body);
        Frame(Repr::Shared(shared))
    }
}

impl From<Vec<u8>> for Frame {
    /// Moves the vector in: no copy, no allocation.
    #[inline]
    fn from(bytes: Vec<u8>) -> Self {
        Frame(Repr::Owned(bytes))
    }
}

impl Deref for Frame {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Owned(bytes) => bytes,
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        **self == **other
    }
}

impl Eq for Frame {}

impl fmt::Debug for Frame {
    /// Formats the bytes, as a `Vec<u8>` payload did.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeId, Packet, Port};
    use crate::rng::DeterministicRng;

    /// The same bytes as `copy_from_slice` makes them (inline up to the
    /// bound), moved in as a `Vec`, shared at any length, and joined from
    /// two halves by `concat`.
    fn forms(bytes: &[u8]) -> [Frame; 4] {
        let (head, body) = bytes.split_at(bytes.len() / 3);
        [
            Frame::copy_from_slice(bytes),
            Frame::from(bytes.to_vec()),
            Frame(Repr::Shared(Arc::from(bytes))),
            Frame::concat(head, body),
        ]
    }

    fn packet(payload: Frame) -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            port: Port::new(7),
            payload,
            trace: 0,
            span: 0,
        }
    }

    #[test]
    fn every_form_reads_compares_and_clones_the_same_at_every_length() {
        let mut rng = DeterministicRng::seed_from(29);
        for len in 0..=64 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let forms = forms(&bytes);
            for frame in &forms {
                assert_eq!(&**frame, &bytes[..], "len {len}: {frame:?}");
                assert_eq!(&frame.clone(), frame, "len {len}");
                assert_eq!(format!("{frame:?}"), format!("{bytes:?}"), "len {len}");
                assert_eq!(packet(frame.clone()).wire_size(), len + 32, "len {len}");
                for other in &forms {
                    assert_eq!(frame, other, "len {len}");
                }
            }
            let inline = matches!(Frame::copy_from_slice(&bytes).0, Repr::Inline { .. });
            assert_eq!(inline, len <= INLINE_CAP, "len {len}");
            let joined = matches!(forms[3].0, Repr::Inline { .. });
            assert_eq!(joined, len <= INLINE_CAP, "len {len}");
            if let Some(last) = bytes.last() {
                let mut changed = bytes.clone();
                *changed.last_mut().expect("non-empty") = last.wrapping_add(1);
                assert_ne!(forms[0], Frame::from(changed), "len {len}");
            }
        }
    }

    #[test]
    fn shared_clones_point_at_one_allocation() {
        let frame = Frame::copy_from_slice(&[5; 40]);
        let clone = frame.clone();
        assert_eq!(frame.as_ptr(), clone.as_ptr());
        let owned = Frame::from(vec![5; 40]);
        let moved = owned.as_ptr();
        assert_eq!(packet(owned).payload.as_ptr(), moved, "a Vec moves in");
    }
}
