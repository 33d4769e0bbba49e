//! Checksummed, crash-safe on-disk artifacts.
//!
//! Everything a worker hands back to the supervisor crosses a process
//! boundary through the filesystem, where it can be torn by a crash
//! mid-write, truncated by a full disk, or bit-flipped by a bad medium.
//! The envelope here makes every such corruption *detectable*: a short
//! self-describing header carries the payload length and an FNV-1a
//! checksum over the exact payload bytes, so a damaged file is always a
//! typed [`ArtifactError`] — never a panic, and never silently accepted
//! as valid.
//!
//! Writes go through [`fleet_obs::fsio::write_atomic`] (temp file,
//! fsync, rename), so a reader either sees the previous artifact or the
//! complete new one. The corruption handling exists for the paths that
//! *bypass* the atomic writer: chaos injection in tests, and real-world
//! media faults.
//!
//! Wire format (`fleet-artifact/1`):
//!
//! ```text
//! fleet-artifact/1 kind=<kind> len=<bytes> fnv1a64=<16 hex digits>\n
//! <payload bytes>
//! ```

use std::fmt;
use std::path::Path;

/// Envelope magic; bump on incompatible header changes.
pub const ARTIFACT_MAGIC: &str = "fleet-artifact/1";

/// Why an artifact failed to load. Every variant names the failing
/// byte region where one exists, so operators can see *where* a file
/// went bad, not just that it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactErrorKind {
    /// The file could not be read at all.
    Io(String),
    /// The header line is missing or malformed.
    Header(String),
    /// The envelope names a different kind than the reader expected.
    WrongKind { expected: String, actual: String },
    /// Fewer payload bytes on disk than the header declares.
    Truncated { expected: u64, actual: u64 },
    /// Payload bytes present but their checksum disagrees with the
    /// header — a torn or bit-flipped write.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// The payload is not valid UTF-8 (all current payloads are JSON).
    Utf8(String),
    /// The payload parsed as text but not as the expected document.
    Payload(String),
}

/// A typed artifact-load failure: which file, which byte, what went
/// wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactError {
    /// The artifact path, as given to the reader.
    pub artifact: String,
    /// Byte offset (from file start) of the failure, where one exists.
    pub offset: Option<u64>,
    /// The failure itself.
    pub kind: ArtifactErrorKind,
}

impl ArtifactError {
    fn new(path: &Path, offset: Option<u64>, kind: ArtifactErrorKind) -> Self {
        ArtifactError {
            artifact: path.display().to_string(),
            offset,
            kind,
        }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact {:?}: ", self.artifact)?;
        match &self.kind {
            ArtifactErrorKind::Io(e) => write!(f, "{e}")?,
            ArtifactErrorKind::Header(e) => write!(f, "bad header: {e}")?,
            ArtifactErrorKind::WrongKind { expected, actual } => {
                write!(f, "kind {actual:?}, expected {expected:?}")?
            }
            ArtifactErrorKind::Truncated { expected, actual } => {
                write!(f, "truncated payload: {actual} of {expected} bytes")?
            }
            ArtifactErrorKind::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: payload hashes to {actual:016x}, header says {expected:016x}"
            )?,
            ArtifactErrorKind::Utf8(e) => write!(f, "payload not UTF-8: {e}")?,
            ArtifactErrorKind::Payload(e) => write!(f, "bad payload: {e}")?,
        }
        if let Some(offset) = self.offset {
            write!(f, " at byte {offset}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ArtifactError {}

/// A successfully opened envelope: the payload plus where it started,
/// so payload-level parse errors can still report file-absolute byte
/// offsets.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The verified payload bytes.
    pub payload: Vec<u8>,
    /// File offset of the first payload byte (header length + 1).
    pub payload_offset: u64,
}

/// Renders the envelope for a payload: header line + raw bytes.
pub fn envelope(kind: &str, payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{ARTIFACT_MAGIC} kind={kind} len={} fnv1a64={:016x}\n",
        payload.len(),
        solar_trace::hash::fnv1a_bytes(payload),
    );
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(header.as_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Writes `payload` under the checksummed envelope, atomically: the
/// file either keeps its old contents or gains the complete new ones,
/// never a torn mix.
pub fn write_artifact_atomic(path: &Path, kind: &str, payload: &[u8]) -> Result<(), String> {
    fleet_obs::fsio::write_atomic(path, &envelope(kind, payload))
}

/// Reads and verifies an envelope, returning the payload.
///
/// # Errors
///
/// A typed [`ArtifactError`] for unreadable files, malformed or foreign
/// headers, truncated payloads, and checksum mismatches. No input —
/// including arbitrary garbage — panics this path.
pub fn read_artifact(path: &Path, expected_kind: &str) -> Result<Artifact, ArtifactError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ArtifactError::new(path, None, ArtifactErrorKind::Io(e.to_string())))?;
    let newline = bytes.iter().position(|&b| b == b'\n').ok_or_else(|| {
        ArtifactError::new(
            path,
            Some(bytes.len() as u64),
            ArtifactErrorKind::Header("no header terminator".to_string()),
        )
    })?;
    let header = std::str::from_utf8(&bytes[..newline]).map_err(|e| {
        ArtifactError::new(
            path,
            Some(e.valid_up_to() as u64),
            ArtifactErrorKind::Header("header not UTF-8".to_string()),
        )
    })?;
    let header_err =
        |msg: String| ArtifactError::new(path, Some(0), ArtifactErrorKind::Header(msg));

    let mut fields = header.split(' ');
    let magic = fields.next().unwrap_or_default();
    if magic != ARTIFACT_MAGIC {
        return Err(header_err(format!(
            "magic {magic:?}, expected {ARTIFACT_MAGIC:?}"
        )));
    }
    let mut kind = None;
    let mut len = None;
    let mut checksum = None;
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| header_err(format!("malformed field {field:?}")))?;
        match key {
            "kind" => kind = Some(value.to_string()),
            "len" => {
                len = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| header_err(format!("bad len {value:?}: {e}")))?,
                )
            }
            "fnv1a64" => {
                if value.len() != 16 {
                    return Err(header_err(format!("bad fnv1a64 {value:?}: want 16 digits")));
                }
                checksum = Some(
                    u64::from_str_radix(value, 16)
                        .map_err(|e| header_err(format!("bad fnv1a64 {value:?}: {e}")))?,
                )
            }
            other => return Err(header_err(format!("unknown field {other:?}"))),
        }
    }
    let kind = kind.ok_or_else(|| header_err("missing kind field".to_string()))?;
    let len = len.ok_or_else(|| header_err("missing len field".to_string()))?;
    let checksum = checksum.ok_or_else(|| header_err("missing fnv1a64 field".to_string()))?;
    if kind != expected_kind {
        return Err(ArtifactError::new(
            path,
            Some(0),
            ArtifactErrorKind::WrongKind {
                expected: expected_kind.to_string(),
                actual: kind,
            },
        ));
    }

    let payload = &bytes[newline + 1..];
    if (payload.len() as u64) != len {
        // Extra bytes are as disqualifying as missing ones (a longer
        // file can still checksum-collide in principle; length is the
        // cheap first gate).
        return Err(ArtifactError::new(
            path,
            Some(bytes.len() as u64),
            ArtifactErrorKind::Truncated {
                expected: len,
                actual: payload.len() as u64,
            },
        ));
    }
    let actual = solar_trace::hash::fnv1a_bytes(payload);
    if actual != checksum {
        return Err(ArtifactError::new(
            path,
            Some(newline as u64 + 1),
            ArtifactErrorKind::ChecksumMismatch {
                expected: checksum,
                actual,
            },
        ));
    }
    Ok(Artifact {
        payload: payload.to_vec(),
        payload_offset: newline as u64 + 1,
    })
}

/// Reads a verified envelope whose payload is a JSON document. Parse
/// failures carry file-absolute byte offsets.
pub fn read_artifact_json(
    path: &Path,
    expected_kind: &str,
) -> Result<fleet_obs::json::Json, ArtifactError> {
    let artifact = read_artifact(path, expected_kind)?;
    let text = std::str::from_utf8(&artifact.payload).map_err(|e| {
        ArtifactError::new(
            path,
            Some(artifact.payload_offset + e.valid_up_to() as u64),
            ArtifactErrorKind::Utf8(e.to_string()),
        )
    })?;
    fleet_obs::json::Json::parse_located(text).map_err(|e| {
        ArtifactError::new(
            path,
            Some(artifact.payload_offset + e.offset as u64),
            ArtifactErrorKind::Payload(e.message),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harness_artifact_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_payload_bytes() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("shard.artifact");
        let payload = b"{\"answer\": 42}";
        write_artifact_atomic(&path, "shard-run", payload).unwrap();
        let artifact = read_artifact(&path, "shard-run").unwrap();
        assert_eq!(artifact.payload, payload);
        let json = read_artifact_json(&path, "shard-run").unwrap();
        assert_eq!(json.req_index("answer").unwrap(), 42);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_and_bit_flips_are_typed_errors() {
        let dir = temp_dir("corrupt");
        let path = dir.join("shard.artifact");
        let payload = b"{\"answer\": 42}";
        write_artifact_atomic(&path, "shard-run", payload).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncated payload.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let err = read_artifact(&path, "shard-run").unwrap_err();
        assert!(matches!(err.kind, ArtifactErrorKind::Truncated { .. }));
        assert!(err.to_string().contains("at byte"), "{err}");

        // Single bit flip in the payload.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = read_artifact(&path, "shard-run").unwrap_err();
        assert!(
            matches!(err.kind, ArtifactErrorKind::ChecksumMismatch { .. }),
            "{err}"
        );

        // Wrong kind.
        std::fs::write(&path, &full).unwrap();
        let err = read_artifact(&path, "coverage").unwrap_err();
        assert!(matches!(err.kind, ArtifactErrorKind::WrongKind { .. }));

        // Garbage file.
        std::fs::write(&path, b"not an artifact at all").unwrap();
        let err = read_artifact(&path, "shard-run").unwrap_err();
        assert!(matches!(err.kind, ArtifactErrorKind::Header(_)), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_parse_errors_carry_file_absolute_offsets() {
        let dir = temp_dir("payload");
        let path = dir.join("shard.artifact");
        // Valid envelope around an invalid JSON payload: the envelope
        // layer accepts it, the JSON layer names the failing byte
        // relative to the file, not the payload.
        let payload = b"{\"a\": 1";
        write_artifact_atomic(&path, "shard-run", payload).unwrap();
        let err = read_artifact_json(&path, "shard-run").unwrap_err();
        let Some(offset) = err.offset else {
            panic!("payload error must carry an offset: {err}");
        };
        let artifact = read_artifact(&path, "shard-run").unwrap();
        assert_eq!(offset, artifact.payload_offset + payload.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
