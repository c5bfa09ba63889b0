//! Versioned binary checkpoint format for named parameter sets.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"PFTN"
//! version u32 (currently 1)
//! count   u32
//! entry*  { name_len u32, name bytes (utf-8),
//!           rank u32, dims u64 × rank,
//!           data f32 × Π dims }
//! ```
//!
//! `serde` alone (without a format crate) cannot express this, so the
//! format is hand-rolled.

use crate::nn::Param;
use crate::Tensor;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PFTN";
const VERSION: u32 = 1;

/// Errors raised when decoding a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Wrong magic bytes — not a checkpoint file.
    BadMagic,
    /// Version newer than this build understands.
    BadVersion(u32),
    /// Structurally invalid payload (truncated, bogus lengths, non-UTF-8).
    Corrupt(&'static str),
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a PFTN checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// An ordered name → tensor map, the unit of (de)serialization.
#[derive(Default, Debug)]
pub struct StateDict {
    entries: BTreeMap<String, Tensor>,
}

impl StateDict {
    /// Empty state dict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a named tensor.
    pub fn insert(&mut self, name: impl Into<String>, t: Tensor) {
        self.entries.insert(name.into(), t);
    }

    /// Looks up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Number of tensors stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no tensors are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.entries.iter()
    }

    /// Captures a parameter's current value (by its checkpoint name).
    pub fn capture(&mut self, p: &Param) {
        self.insert(p.name.clone(), p.value.clone());
    }

    /// Restores a parameter from the dict.
    ///
    /// Returns `false` (leaving the parameter untouched) when the name is
    /// missing or the stored shape disagrees — callers decide whether a
    /// partial restore is an error.
    pub fn restore(&self, p: &mut Param) -> bool {
        match self.entries.get(&p.name) {
            Some(t) if t.shape() == p.value.shape() => {
                p.value = t.clone();
                true
            }
            _ => false,
        }
    }

    /// Serializes to any writer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.entries.len() as u32).to_le_bytes())?;
        for (name, t) in &self.entries {
            w.write_all(&(name.len() as u32).to_le_bytes())?;
            w.write_all(name.as_bytes())?;
            w.write_all(&(t.rank() as u32).to_le_bytes())?;
            for &d in t.shape() {
                w.write_all(&(d as u64).to_le_bytes())?;
            }
            for &v in t.data() {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserializes from any reader.
    pub fn read_from(r: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let count = read_u32(r)? as usize;
        let mut dict = StateDict::new();
        for _ in 0..count {
            let name_len = read_u32(r)? as usize;
            if name_len > 1 << 16 {
                return Err(CheckpointError::Corrupt("name length"));
            }
            let mut name_bytes = vec![0u8; name_len];
            r.read_exact(&mut name_bytes)?;
            let name = String::from_utf8(name_bytes)
                .map_err(|_| CheckpointError::Corrupt("non-utf8 name"))?;
            let rank = read_u32(r)? as usize;
            if rank > 8 {
                return Err(CheckpointError::Corrupt("rank"));
            }
            let mut shape = Vec::with_capacity(rank);
            let mut numel: u64 = 1;
            for _ in 0..rank {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                let d = u64::from_le_bytes(b);
                numel = numel.saturating_mul(d);
                shape.push(d as usize);
            }
            if numel > 1 << 31 {
                return Err(CheckpointError::Corrupt("tensor too large"));
            }
            let mut data = vec![0f32; numel as usize];
            let mut buf = [0u8; 4];
            for v in &mut data {
                r.read_exact(&mut buf)?;
                *v = f32::from_le_bytes(buf);
            }
            dict.insert(name, Tensor::from_vec(&shape, data));
        }
        Ok(dict)
    }

    /// Writes the checkpoint to a file.
    pub fn save(&self, path: &std::path::Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: &std::path::Path) -> Result<Self, CheckpointError> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut r)
    }
}

fn read_u32(r: &mut impl Read) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededRng;

    #[test]
    fn roundtrip_preserves_tensors() {
        let mut rng = SeededRng::new(1);
        let mut dict = StateDict::new();
        dict.insert("a.w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        dict.insert("a.b", Tensor::randn(&[4], 1.0, &mut rng));
        dict.insert("scalarish", Tensor::randn(&[1], 1.0, &mut rng));
        let mut buf = Vec::new();
        dict.write_to(&mut buf).unwrap();
        let back = StateDict::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
        for (name, t) in dict.iter() {
            assert_eq!(back.get(name).unwrap(), t, "{name}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00".to_vec();
        match StateDict::read_from(&mut buf.as_slice()) {
            Err(CheckpointError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        match StateDict::read_from(&mut buf.as_slice()) {
            Err(CheckpointError::BadVersion(99)) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut dict = StateDict::new();
        dict.insert("w", Tensor::full(&[8], 1.0));
        let mut buf = Vec::new();
        dict.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(StateDict::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn capture_restore_param() {
        let mut rng = SeededRng::new(2);
        let mut p = Param::new("layer.w", Tensor::randn(&[2, 2], 1.0, &mut rng));
        let original = p.value.clone();
        let mut dict = StateDict::new();
        dict.capture(&p);
        p.value = Tensor::zeros(&[2, 2]);
        assert!(dict.restore(&mut p));
        assert_eq!(p.value, original);
    }

    #[test]
    fn restore_shape_mismatch_returns_false() {
        let mut dict = StateDict::new();
        dict.insert("w", Tensor::zeros(&[3]));
        let mut p = Param::new("w", Tensor::zeros(&[4]));
        assert!(!dict.restore(&mut p));
        // And missing names too.
        let mut q = Param::new("missing", Tensor::zeros(&[1]));
        assert!(!dict.restore(&mut q));
    }

    #[test]
    fn file_save_load() {
        let dir = std::env::temp_dir().join("pftn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.pftn");
        let mut dict = StateDict::new();
        dict.insert("x", Tensor::full(&[5], 2.5));
        dict.save(&path).unwrap();
        let back = StateDict::load(&path).unwrap();
        assert_eq!(back.get("x").unwrap().data(), &[2.5; 5]);
        std::fs::remove_file(&path).ok();
    }
}
