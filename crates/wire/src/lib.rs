//! # sb-wire
//!
//! The compact, hand-rolled binary wire protocol spoken between
//! `sb_client::TcpTransport` and `sb_server::TcpServingTier`: a versioned,
//! CRC-checked, length-prefixed frame ([`FrameHeader`]) around one protocol
//! [`Message`] — an update exchange, a full-hash batch, a typed error
//! frame carrying a [`ServiceError`](sb_protocol::ServiceError), or the
//! telemetry admin pair ([`Message::TelemetryRequest`] /
//! [`Message::Telemetry`]) scraping a
//! [`RegistrySnapshot`](sb_telemetry::RegistrySnapshot) out of a running
//! serving tier.
//!
//! Design rules:
//!
//! * **Bounded**: payload lengths are capped ([`MAX_PAYLOAD`]), strings are
//!   capped, and collection counts are validated against the bytes actually
//!   present before anything is allocated.
//! * **Reject, never panic**: every decode path returns [`WireError`] on
//!   truncated, corrupted or hostile input.  The per-frame CRC-32 turns
//!   byte-level corruption into a detected error instead of a
//!   plausible-but-wrong message.
//! * **Symmetric**: `decode(encode(m)) == m` for every message and error
//!   type (property-tested in `tests/proptests.rs`).
//!
//! ## Example
//!
//! ```
//! use sb_protocol::FullHashRequest;
//! use sb_hash::prefix32;
//! use sb_wire::{decode_frame, encode_frame, Message};
//!
//! let message = Message::FullHashRequests(vec![
//!     FullHashRequest::new(vec![prefix32("evil.example/")]),
//! ]);
//! let frame = encode_frame(&message).unwrap();
//! assert_eq!(decode_frame(&frame).unwrap(), message);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod frame;

pub use codec::{MAX_LIST_NAME_BYTES, MAX_METRIC_NAME_BYTES, MAX_REASON_BYTES};
pub use frame::{
    crc32, decode_frame, decode_payload, encode_frame, read_message, read_payload, write_message,
    FrameHeader, FrameType, Message, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
