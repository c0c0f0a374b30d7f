//! Length-prefixed JSON framing over any byte stream.
//!
//! A frame is a 4-byte big-endian payload length followed by exactly that
//! many bytes of UTF-8 JSON (one document per frame, encoded by
//! [`dx_campaign::json`]). The format is self-delimiting, so a stream of
//! frames needs no other synchronization — and because the payloads reuse
//! the checkpoint codecs, a wire message and a checkpoint line for the
//! same value are byte-identical.

use std::io::{self, Read, Write};
use std::sync::{Arc, OnceLock};

use dx_campaign::json::{invalid, parse_doc, Json};
use dx_telemetry::sync::blocking;
use dx_telemetry::{names, Counter};

/// Upper bound on one frame's payload, as a corruption guard: a garbage
/// length prefix would otherwise ask for gigabytes.
pub const MAX_FRAME: usize = 1 << 28;

/// Process-wide wire traffic counters (`dx_frames_total` /
/// `dx_bytes_total` by direction), registered on the global registry so
/// any `--metrics-addr` endpoint in the process — coordinator or worker —
/// shows its own traffic. Cached: the framing hot path must not take the
/// registry lock per frame.
struct WireMetrics {
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = dx_telemetry::global();
        WireMetrics {
            frames_in: reg.counter(names::FRAMES_TOTAL.name, &[("dir", "in")]),
            frames_out: reg.counter(names::FRAMES_TOTAL.name, &[("dir", "out")]),
            bytes_in: reg.counter(names::BYTES_TOTAL.name, &[("dir", "in")]),
            bytes_out: reg.counter(names::BYTES_TOTAL.name, &[("dir", "out")]),
        }
    })
}

fn oversized_for(len: usize, cap: usize) -> io::Error {
    invalid(format!("frame of {len} bytes exceeds the {cap}-byte cap"))
}

/// Writes one framed message and flushes.
///
/// # Errors
///
/// Any I/O failure, or a message over [`MAX_FRAME`] bytes.
pub fn write_frame(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    blocking("write_frame");
    let payload = msg.to_string();
    if payload.len() > MAX_FRAME {
        return Err(oversized_for(payload.len(), MAX_FRAME));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()?;
    let m = wire_metrics();
    m.frames_out.inc();
    m.bytes_out.inc_by(4 + payload.len() as u64);
    Ok(())
}

/// Reads one framed message, blocking until it is complete.
///
/// # Errors
///
/// `UnexpectedEof` on a stream that ends mid-frame, `InvalidData` on an
/// oversized length prefix or a payload that is not valid JSON.
pub fn read_frame(r: &mut impl Read) -> io::Result<Json> {
    blocking("read_frame");
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(oversized_for(len, MAX_FRAME));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let m = wire_metrics();
    m.frames_in.inc();
    m.bytes_in.inc_by(4 + len as u64);
    decode(&payload)
}

fn decode(payload: &[u8]) -> io::Result<Json> {
    let text = std::str::from_utf8(payload).map_err(|_| invalid("frame payload is not UTF-8"))?;
    parse_doc(text)
}

/// An incremental frame reader for sockets with a read timeout.
///
/// [`read_frame`] assumes blocking reads: a timeout mid-frame would lose
/// the bytes already consumed. `FrameReader` instead accumulates partial
/// header/payload bytes across calls, so a server can poll a connection
/// (checking drain flags between polls) without ever corrupting framing.
pub struct FrameReader {
    buf: Vec<u8>,
    /// Payload length once the 4-byte header is complete.
    need: Option<usize>,
    /// Per-reader frame cap (≤ [`MAX_FRAME`]); servers start unadmitted
    /// connections small so a stranger cannot demand a huge allocation
    /// with a four-byte length prefix.
    cap: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// A reader with no partial state and the default [`MAX_FRAME`] cap.
    pub fn new() -> Self {
        Self::with_cap(MAX_FRAME)
    }

    /// A reader capped at `cap` bytes per frame (clamped to
    /// [`MAX_FRAME`]). A length prefix over the cap is `InvalidData`
    /// *before* any payload allocation happens.
    pub fn with_cap(cap: usize) -> Self {
        Self { buf: Vec::new(), need: None, cap: cap.min(MAX_FRAME) }
    }

    /// Raises (or lowers) the cap for subsequent frames — e.g. once a
    /// connection has authenticated and earned the full allowance. Takes
    /// effect from the next length prefix read.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap.min(MAX_FRAME);
    }

    /// Reads whatever is available; returns `Ok(Some(msg))` once a full
    /// frame has accumulated, `Ok(None)` when the read would block (the
    /// partial frame is kept for the next poll).
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the peer closes the stream (mid-frame or
    /// between frames), `InvalidData` on oversized or malformed payloads,
    /// and any other I/O error.
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<Option<Json>> {
        blocking("FrameReader::poll");
        loop {
            let target = match self.need {
                None => 4,
                Some(len) => 4 + len,
            };
            if self.buf.len() == target {
                if let Some(len) = self.need {
                    let msg = decode(self.buf.get(4..).unwrap_or_default())?;
                    self.buf.clear();
                    self.need = None;
                    let m = wire_metrics();
                    m.frames_in.inc();
                    m.bytes_in.inc_by(4 + len as u64);
                    return Ok(Some(msg));
                }
                // Header complete: learn the payload length and keep going.
                let len =
                    self.buf.iter().take(4).fold(0usize, |acc, &b| (acc << 8) | usize::from(b));
                if len > self.cap {
                    return Err(oversized_for(len, self.cap));
                }
                self.need = Some(len);
                continue;
            }
            let mut chunk = [0u8; 4096];
            let want = (target - self.buf.len()).min(chunk.len());
            #[expect(clippy::indexing_slicing, reason = "`want` is min-clamped to chunk.len()")]
            match r.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    ))
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`n <= want <= chunk.len()` by the Read contract"
                )]
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_campaign::json::build;

    fn sample() -> Json {
        build::obj(vec![
            ("type", build::str("lease")),
            ("jobs", build::ints(&[1, 2, 3])),
            ("note", build::str("héllo\n\"frame\"")),
        ])
    }

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        write_frame(&mut buf, &Json::Null).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), sample());
        assert_eq!(read_frame(&mut r).unwrap(), Json::Null);
        assert!(r.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "blocking in write_frame while holding DaemonState")]
    fn a_frame_write_under_a_lock_panics() {
        let state = dx_telemetry::sync::Ranked::new(dx_telemetry::sync::Rank::DaemonState, ());
        let _st = state.lock();
        let _ = write_frame(&mut Vec::new(), &sample());
    }

    /// Yields at most one byte per read, interleaved with `WouldBlock`
    /// errors — the worst legal behavior of a socket with a read timeout.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        starve: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "starved"));
            }
            if self.pos == self.data.len() {
                return Ok(0);
            }
            out[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_partial_reads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        write_frame(&mut buf, &build::ints(&[7, 8])).unwrap();
        let mut src = Trickle { data: &buf, pos: 0, starve: false };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.poll(&mut src) {
                Ok(Some(msg)) => got.push(msg),
                Ok(None) => continue, // WouldBlock: partial state retained.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, vec![sample(), build::ints(&[7, 8])]);
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        for cut in 0..buf.len() - 1 {
            let mut r = &buf[..cut];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            // The incremental reader agrees.
            let mut src = &buf[..cut];
            let mut reader = FrameReader::new();
            match reader.poll(&mut src) {
                Ok(Some(_)) => panic!("cut at {cut} produced a frame"),
                Ok(None) => unreachable!("slices never block"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xxxx");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let mut reader = FrameReader::new();
        let mut r = &buf[..];
        assert_eq!(reader.poll(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn per_reader_cap_rejects_frames_the_default_would_allow() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        // A cap below the frame size rejects at the length prefix...
        let mut small = FrameReader::with_cap(8);
        let mut r = &buf[..];
        assert_eq!(small.poll(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // ...and raising the cap (fresh frame boundary) admits it again.
        let mut raised = FrameReader::with_cap(8);
        raised.set_cap(MAX_FRAME);
        let mut r = &buf[..];
        assert_eq!(raised.poll(&mut r).unwrap().unwrap(), sample());
        // with_cap never exceeds the global MAX_FRAME guard.
        let mut huge = FrameReader::with_cap(usize::MAX);
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        assert_eq!(huge.poll(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_json_payload_is_rejected() {
        let mut buf = 3u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{x}");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
