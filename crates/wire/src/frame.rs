//! The frame layer: a versioned, checksummed, length-prefixed envelope
//! around one protocol message.
//!
//! ```text
//!  offset  size  field
//!  0       2     magic            b"SB"
//!  2       1     protocol version (VERSION)
//!  3       1     frame type       (FrameType)
//!  4       4     payload length   u32 BE, <= MAX_PAYLOAD
//!  8       4     payload CRC-32   u32 BE (IEEE polynomial)
//!  12      n     payload          message body (codec.rs layouts)
//! ```
//!
//! The header is fixed-size so a reader always knows how many bytes to pull
//! next; the length bound rejects hostile frames before allocating; the
//! CRC makes *any* payload corruption a decode error instead of a
//! plausible-but-wrong message.  Every decode path returns [`WireError`] —
//! truncated, oversized, corrupted or trailing input never panics.

use std::io::{Read, Write};

use sb_protocol::{FullHashRequest, FullHashResponse, ServiceError, UpdateRequest, UpdateResponse};
use sb_telemetry::RegistrySnapshot;

use crate::codec::{self, Reader};

/// Leading magic bytes of every frame.
pub const MAGIC: [u8; 2] = *b"SB";

/// Wire protocol version carried (and checked) in every frame header.
pub const VERSION: u8 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame payload (64 MiB).  A full update of a
/// million-prefix list is ~6 MiB, so the bound leaves an order of magnitude
/// of headroom while keeping a hostile length field from driving a huge
/// allocation.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// The kind of message a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// An [`UpdateRequest`].
    UpdateRequest = 1,
    /// An [`UpdateResponse`].
    UpdateResponse = 2,
    /// A batch of [`FullHashRequest`]s.
    FullHashRequests = 3,
    /// A batch of [`FullHashResponse`]s.
    FullHashResponses = 4,
    /// A typed [`ServiceError`].
    Error = 5,
    /// An admin request for the serving tier's telemetry snapshot.
    TelemetryRequest = 6,
    /// A point-in-time [`RegistrySnapshot`] of the serving process.
    Telemetry = 7,
}

impl FrameType {
    fn from_u8(tag: u8) -> Result<Self, WireError> {
        match tag {
            1 => Ok(FrameType::UpdateRequest),
            2 => Ok(FrameType::UpdateResponse),
            3 => Ok(FrameType::FullHashRequests),
            4 => Ok(FrameType::FullHashResponses),
            5 => Ok(FrameType::Error),
            6 => Ok(FrameType::TelemetryRequest),
            7 => Ok(FrameType::Telemetry),
            other => Err(WireError::UnknownFrameType(other)),
        }
    }
}

/// One decoded protocol message — the unit a frame carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A database-update request.
    UpdateRequest(UpdateRequest),
    /// A database-update response.
    UpdateResponse(UpdateResponse),
    /// A batch of full-hash requests (one round trip).
    FullHashRequests(Vec<FullHashRequest>),
    /// A batch of full-hash responses (in request order).
    FullHashResponses(Vec<FullHashResponse>),
    /// A typed error frame carrying the provider's [`ServiceError`].
    Error(ServiceError),
    /// An admin request for the peer's telemetry snapshot (empty payload).
    TelemetryRequest,
    /// A point-in-time metrics snapshot scraped out of the serving process.
    Telemetry(RegistrySnapshot),
}

impl Message {
    /// The frame type tag this message is carried under.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Message::UpdateRequest(_) => FrameType::UpdateRequest,
            Message::UpdateResponse(_) => FrameType::UpdateResponse,
            Message::FullHashRequests(_) => FrameType::FullHashRequests,
            Message::FullHashResponses(_) => FrameType::FullHashResponses,
            Message::Error(_) => FrameType::Error,
            Message::TelemetryRequest => FrameType::TelemetryRequest,
            Message::Telemetry(_) => FrameType::Telemetry,
        }
    }
}

/// Errors of the wire layer.  Decode paths return these for any hostile,
/// truncated or corrupted input — they never panic.
#[derive(Debug)]
pub enum WireError {
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The frame does not start with the protocol magic.
    BadMagic([u8; 2]),
    /// The frame advertises a protocol version this build does not speak.
    UnsupportedVersion(u8),
    /// The frame type tag is not one of the known [`FrameType`]s.
    UnknownFrameType(u8),
    /// The advertised payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The advertised payload length.
        len: u64,
    },
    /// The payload does not match the header's CRC-32.
    ChecksumMismatch,
    /// The payload ended before the message did.
    Truncated,
    /// The message ended before the payload did.
    TrailingBytes {
        /// Unconsumed payload bytes after the message.
        extra: usize,
    },
    /// The payload violates a message-level invariant (unknown tag, bad
    /// width, non-UTF-8 name, unsorted ranges, ...).
    Malformed(String),
}

impl WireError {
    /// True for stream-level timeouts (`WouldBlock`/`TimedOut`), which a
    /// polling reader treats as "no frame yet" rather than as a failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }

    /// True when the failure is about the *stream* (I/O error, peer gone,
    /// frame cut off mid-flight) rather than about the bytes themselves.
    /// Transport-level failures are worth retrying on a fresh connection;
    /// the rest mean the peer is speaking a different protocol.
    pub fn transport_level(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::Closed | WireError::Truncated
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::BadMagic(m) => write!(f, "bad frame magic: {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            WireError::ChecksumMismatch => write!(f, "frame payload fails its checksum"),
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            WireError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE) — the shared implementation lives in sb-hash, next to the
// other integrity primitives, so the wire codec and the sb-store snapshot
// format checksum bytes identically.  Re-exported here to keep
// `sb_wire::crc32` a public name.
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE polynomial) of `bytes` — the payload checksum carried in
/// every frame header (re-export of [`sb_hash::crc32`]).
pub use sb_hash::crc32;

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The type of message the payload carries.
    pub frame_type: FrameType,
    /// Payload length in bytes (already validated against [`MAX_PAYLOAD`]).
    pub payload_len: u32,
    /// CRC-32 of the payload.
    pub checksum: u32,
}

impl FrameHeader {
    /// Encodes the header into its fixed 12-byte layout.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut bytes = [0u8; HEADER_LEN];
        bytes[0..2].copy_from_slice(&MAGIC);
        bytes[2] = VERSION;
        bytes[3] = self.frame_type as u8;
        bytes[4..8].copy_from_slice(&self.payload_len.to_be_bytes());
        bytes[8..12].copy_from_slice(&self.checksum.to_be_bytes());
        bytes
    }

    /// Decodes and validates a 12-byte header.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
    /// [`WireError::UnknownFrameType`] or [`WireError::Oversized`].
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self, WireError> {
        if bytes[0..2] != MAGIC {
            return Err(WireError::BadMagic([bytes[0], bytes[1]]));
        }
        if bytes[2] != VERSION {
            return Err(WireError::UnsupportedVersion(bytes[2]));
        }
        let frame_type = FrameType::from_u8(bytes[3])?;
        let payload_len = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if payload_len as usize > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                len: u64::from(payload_len),
            });
        }
        let checksum = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        Ok(FrameHeader {
            frame_type,
            payload_len,
            checksum,
        })
    }
}

// ---------------------------------------------------------------------------
// Whole-frame encode/decode
// ---------------------------------------------------------------------------

/// Encodes a message into one complete frame (header + payload).
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload would exceed [`MAX_PAYLOAD`];
/// [`WireError::Malformed`] if the message violates a wire bound (e.g. a
/// list name longer than the codec accepts).
pub fn encode_frame(message: &Message) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    match message {
        Message::UpdateRequest(m) => codec::encode_update_request(&mut payload, m)?,
        Message::UpdateResponse(m) => codec::encode_update_response(&mut payload, m)?,
        Message::FullHashRequests(m) => codec::encode_full_hash_requests(&mut payload, m)?,
        Message::FullHashResponses(m) => codec::encode_full_hash_responses(&mut payload, m)?,
        Message::Error(m) => codec::encode_service_error(&mut payload, m)?,
        Message::TelemetryRequest => {}
        Message::Telemetry(m) => codec::encode_registry_snapshot(&mut payload, m)?,
    }
    if payload.len() > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len: payload.len() as u64,
        });
    }
    let header = FrameHeader {
        frame_type: message.frame_type(),
        payload_len: payload.len() as u32,
        checksum: crc32(&payload),
    };
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&header.encode());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Decodes a payload of the given frame type into a message, requiring the
/// payload to be consumed exactly.
///
/// # Errors
///
/// Any decode-side [`WireError`]; never panics, whatever the input.
pub fn decode_payload(frame_type: FrameType, payload: &[u8]) -> Result<Message, WireError> {
    let mut reader = Reader::new(payload);
    let message = match frame_type {
        FrameType::UpdateRequest => {
            Message::UpdateRequest(codec::decode_update_request(&mut reader)?)
        }
        FrameType::UpdateResponse => {
            Message::UpdateResponse(codec::decode_update_response(&mut reader)?)
        }
        FrameType::FullHashRequests => {
            Message::FullHashRequests(codec::decode_full_hash_requests(&mut reader)?)
        }
        FrameType::FullHashResponses => {
            Message::FullHashResponses(codec::decode_full_hash_responses(&mut reader)?)
        }
        FrameType::Error => Message::Error(codec::decode_service_error(&mut reader)?),
        FrameType::TelemetryRequest => Message::TelemetryRequest,
        FrameType::Telemetry => Message::Telemetry(codec::decode_registry_snapshot(&mut reader)?),
    };
    reader.finish()?;
    Ok(message)
}

/// Decodes one complete frame from an in-memory buffer, rejecting trailing
/// bytes after the frame.
///
/// # Errors
///
/// Any [`WireError`]; hostile input of any shape decodes to an error, never
/// a panic.
pub fn decode_frame(bytes: &[u8]) -> Result<Message, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header_bytes = [0u8; HEADER_LEN];
    header_bytes.copy_from_slice(&bytes[..HEADER_LEN]);
    let header = FrameHeader::decode(&header_bytes)?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() < header.payload_len as usize {
        return Err(WireError::Truncated);
    }
    if payload.len() > header.payload_len as usize {
        return Err(WireError::TrailingBytes {
            extra: payload.len() - header.payload_len as usize,
        });
    }
    if crc32(payload) != header.checksum {
        return Err(WireError::ChecksumMismatch);
    }
    decode_payload(header.frame_type, payload)
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Reads one complete frame from a stream, returning the message and the
/// total number of bytes consumed.
///
/// A clean EOF *before* the first header byte returns [`WireError::Closed`]
/// (the peer hung up between frames); EOF mid-frame returns
/// [`WireError::Truncated`].  A read timeout on the first header byte
/// surfaces as an I/O error for which [`WireError::is_timeout`] is true —
/// the idle-poll case for servers with a read deadline.
///
/// # Errors
///
/// Any [`WireError`].
pub fn read_message(reader: &mut impl Read) -> Result<(Message, u64), WireError> {
    let mut header_bytes = [0u8; HEADER_LEN];
    // First byte separately: distinguishes "no frame started" (clean close
    // or idle timeout) from "frame cut off mid-flight".
    match reader.read(&mut header_bytes[..1]) {
        Ok(0) => return Err(WireError::Closed),
        Ok(1) => {}
        Ok(_) => unreachable!("read of a 1-byte buffer returned more than 1"),
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            return read_message(reader);
        }
        Err(e) => return Err(WireError::Io(e)),
    }
    read_exact_mapped(reader, &mut header_bytes[1..])?;
    let header = FrameHeader::decode(&header_bytes)?;
    let payload = read_payload(reader, header.payload_len)?;
    if crc32(&payload) != header.checksum {
        return Err(WireError::ChecksumMismatch);
    }
    let message = decode_payload(header.frame_type, &payload)?;
    Ok((message, (HEADER_LEN + payload.len()) as u64))
}

/// Reads the `len`-byte payload that follows a decoded header.
///
/// The buffer grows only as bytes arrive, never up front from the length
/// the peer claims: a header announcing [`MAX_PAYLOAD`] followed by
/// silence costs a few bytes of memory, not 64 MiB.  The checksum is left
/// to the caller.
///
/// # Errors
///
/// [`WireError::Truncated`] when the stream ends before `len` bytes;
/// [`WireError::Io`] for any other read error (a timeout included).
pub fn read_payload(reader: &mut impl Read, len: u32) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::new();
    reader.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(WireError::Truncated);
    }
    Ok(payload)
}

/// `read_exact` with EOF mapped to [`WireError::Truncated`] (the frame was
/// cut off mid-flight).
fn read_exact_mapped(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), WireError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })
}

/// Encodes and writes one complete frame, returning the bytes written.
///
/// # Errors
///
/// Encode-side [`WireError`]s plus any I/O error from the stream.
pub fn write_message(writer: &mut impl Write, message: &Message) -> Result<u64, WireError> {
    let frame = encode_frame(message)?;
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(frame.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_hash::prefix32;

    fn sample_request() -> Message {
        Message::FullHashRequests(vec![FullHashRequest::new(vec![prefix32("evil.example/")])])
    }

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let message = sample_request();
        let frame = encode_frame(&message).unwrap();
        assert_eq!(decode_frame(&frame).unwrap(), message);
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let message = sample_request();
        let mut buf = Vec::new();
        let written = write_message(&mut buf, &message).unwrap();
        assert_eq!(written as usize, buf.len());
        let mut cursor = std::io::Cursor::new(buf);
        let (decoded, consumed) = read_message(&mut cursor).unwrap();
        assert_eq!(decoded, message);
        assert_eq!(consumed, written);
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_eof_is_truncated() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_message(&mut empty), Err(WireError::Closed)));

        let frame = encode_frame(&sample_request()).unwrap();
        let mut cut = std::io::Cursor::new(frame[..frame.len() - 1].to_vec());
        assert!(matches!(read_message(&mut cut), Err(WireError::Truncated)));
    }

    #[test]
    fn bad_magic_version_and_type_are_rejected() {
        let frame = encode_frame(&sample_request()).unwrap();

        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = frame.clone();
        bad_version[2] = VERSION + 1;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(WireError::UnsupportedVersion(_))
        ));

        let mut bad_type = frame.clone();
        bad_type[3] = 0xEE;
        assert!(matches!(
            decode_frame(&bad_type),
            Err(WireError::UnknownFrameType(0xEE))
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut frame = encode_frame(&sample_request()).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::ChecksumMismatch)
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut header = encode_frame(&sample_request()).unwrap()[..HEADER_LEN].to_vec();
        header[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut bytes = [0u8; HEADER_LEN];
        bytes.copy_from_slice(&header);
        assert!(matches!(
            FrameHeader::decode(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn error_frames_carry_every_service_error() {
        let errors = [
            ServiceError::Backoff {
                retry_after_seconds: 1800,
            },
            ServiceError::Unavailable {
                reason: "upstream 503".into(),
            },
            ServiceError::MalformedRequest {
                reason: "no prefixes".into(),
            },
            ServiceError::MalformedResponse {
                reason: "mixed prefix lengths".into(),
            },
            ServiceError::ListUnknown("ghost-shavar".into()),
        ];
        for error in errors {
            let frame = encode_frame(&Message::Error(error.clone())).unwrap();
            assert_eq!(decode_frame(&frame).unwrap(), Message::Error(error));
        }
    }

    #[test]
    fn telemetry_frames_round_trip() {
        use sb_telemetry::MetricsRegistry;

        let request = encode_frame(&Message::TelemetryRequest).unwrap();
        assert_eq!(
            request.len(),
            HEADER_LEN,
            "telemetry request is header-only"
        );
        assert_eq!(decode_frame(&request).unwrap(), Message::TelemetryRequest);

        let registry = MetricsRegistry::new();
        registry.counter("client.lookups").add(12);
        registry.gauge("client.next_update_hint").set(-1);
        registry.histogram("client.lookup_ns").record(1_500);
        registry.histogram("client.lookup_ns").record(40);
        let message = Message::Telemetry(registry.snapshot());
        let frame = encode_frame(&message).unwrap();
        assert_eq!(decode_frame(&frame).unwrap(), message);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
