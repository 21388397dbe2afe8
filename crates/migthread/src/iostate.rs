//! File-I/O and socket state migration — the paper's §6 future work:
//! "Additional work, such as supporting file I/O migration and socket
//! migration also continues as both will be necessary for a truly
//! portable heterogeneous system."
//!
//! A thread's I/O state cannot be shipped as kernel descriptors; like the
//! rest of MigThread it has to be abstracted to the application level.
//! This module provides:
//!
//! * [`SimFs`] — a simulated shared filesystem (the cluster's NFS stand-in)
//!   that every node can reach by path;
//! * [`FileCursor`] — the *logical* state of an open file: path, access
//!   mode and byte offset. Migration serialises cursors (not descriptors)
//!   and the destination node reopens the path on its own `SimFs` handle
//!   and seeks — exactly how application-level migration systems (Tui,
//!   Condor) reconstruct file state;
//! * [`SocketState`] — the logical state of a connection: peer endpoint,
//!   bytes-consumed counters and any received-but-unread bytes, which must
//!   travel with the thread so no input is lost or replayed.
//!
//! I/O state is byte-order-independent by construction (offsets and
//! counters are serialized in a fixed wire order), so unlike `MThV` data
//! it needs no receiver-makes-right conversion — only re-binding.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_tags::wire::bounded_vec;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Access mode of an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileMode {
    /// Read-only.
    Read,
    /// Read + write.
    ReadWrite,
    /// Append (writes go to the end regardless of offset).
    Append,
}

/// Errors from the simulated filesystem and I/O migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Path does not exist.
    NotFound(String),
    /// Write attempted through a read-only cursor.
    ReadOnly(String),
    /// Malformed serialized I/O state.
    BadState(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::NotFound(p) => write!(f, "no such file: {p}"),
            IoError::ReadOnly(p) => write!(f, "file {p} opened read-only"),
            IoError::BadState(s) => write!(f, "bad I/O state: {s}"),
        }
    }
}

impl std::error::Error for IoError {}

/// A simulated cluster-visible filesystem. Cheap to clone; clones share
/// the same storage (every node mounts the same share).
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    files: Arc<RwLock<HashMap<String, Vec<u8>>>>,
}

impl SimFs {
    /// An empty filesystem.
    pub fn new() -> SimFs {
        SimFs::default()
    }

    /// Create or replace a file.
    pub fn put(&self, path: impl Into<String>, contents: impl Into<Vec<u8>>) {
        self.files.write().insert(path.into(), contents.into());
    }

    /// Whole-file read (tests/inspection).
    pub fn get(&self, path: &str) -> Option<Vec<u8>> {
        self.files.read().get(path).cloned()
    }

    /// File length.
    pub fn len_of(&self, path: &str) -> Option<u64> {
        self.files.read().get(path).map(|f| f.len() as u64)
    }

    /// Open a cursor on `path`.
    pub fn open(&self, path: &str, mode: FileMode) -> Result<FileCursor, IoError> {
        if !self.files.read().contains_key(path) {
            if mode == FileMode::Read {
                return Err(IoError::NotFound(path.to_string()));
            }
            self.files.write().entry(path.to_string()).or_default();
        }
        Ok(FileCursor {
            path: path.to_string(),
            mode,
            offset: 0,
        })
    }
}

/// The logical state of one open file: everything needed to reconstruct
/// the descriptor on another node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCursor {
    /// Path on the shared filesystem.
    pub path: String,
    /// Access mode.
    pub mode: FileMode,
    /// Current byte offset.
    pub offset: u64,
}

impl FileCursor {
    /// Read up to `n` bytes at the cursor, advancing it.
    pub fn read(&mut self, fs: &SimFs, n: usize) -> Result<Vec<u8>, IoError> {
        let files = fs.files.read();
        let data = files
            .get(&self.path)
            .ok_or_else(|| IoError::NotFound(self.path.clone()))?;
        let start = (self.offset as usize).min(data.len());
        let end = (start + n).min(data.len());
        self.offset = end as u64;
        Ok(data[start..end].to_vec())
    }

    /// Write bytes at the cursor (or the end, in append mode).
    pub fn write(&mut self, fs: &SimFs, bytes: &[u8]) -> Result<(), IoError> {
        if self.mode == FileMode::Read {
            return Err(IoError::ReadOnly(self.path.clone()));
        }
        let mut files = fs.files.write();
        let data = files
            .get_mut(&self.path)
            .ok_or_else(|| IoError::NotFound(self.path.clone()))?;
        let at = if self.mode == FileMode::Append {
            data.len()
        } else {
            self.offset as usize
        };
        if at + bytes.len() > data.len() {
            data.resize(at + bytes.len(), 0);
        }
        data[at..at + bytes.len()].copy_from_slice(bytes);
        self.offset = (at + bytes.len()) as u64;
        Ok(())
    }

    /// Serialize the logical state (fixed byte order — platform-free).
    pub fn pack(&self, out: &mut BytesMut) {
        out.put_u8(match self.mode {
            FileMode::Read => 0,
            FileMode::ReadWrite => 1,
            FileMode::Append => 2,
        });
        out.put_u64(self.offset);
        out.put_u16(self.path.len() as u16);
        out.put_slice(self.path.as_bytes());
    }

    /// Deserialize; the destination re-binds against its own [`SimFs`].
    pub fn unpack(buf: &mut Bytes) -> Result<FileCursor, IoError> {
        if buf.remaining() < 11 {
            return Err(IoError::BadState("truncated cursor".into()));
        }
        let mode = match buf.get_u8() {
            0 => FileMode::Read,
            1 => FileMode::ReadWrite,
            2 => FileMode::Append,
            m => return Err(IoError::BadState(format!("bad mode {m}"))),
        };
        let offset = buf.get_u64();
        let n = buf.get_u16() as usize;
        if buf.remaining() < n {
            return Err(IoError::BadState("truncated path".into()));
        }
        let path = String::from_utf8(buf.copy_to_bytes(n).to_vec())
            .map_err(|_| IoError::BadState("non-UTF-8 path".into()))?;
        Ok(FileCursor { path, mode, offset })
    }

    /// Validate against a destination filesystem (the migration-time
    /// check: the path must exist on the destination's mount).
    pub fn rebind(&self, fs: &SimFs) -> Result<(), IoError> {
        if fs.files.read().contains_key(&self.path) {
            Ok(())
        } else {
            Err(IoError::NotFound(self.path.clone()))
        }
    }
}

/// Logical connection state: what must travel so the conversation neither
/// loses nor replays bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketState {
    /// Peer identity ("host:port" in a real deployment; a rank here).
    pub peer: String,
    /// Bytes this side has consumed from the peer.
    pub bytes_received: u64,
    /// Bytes this side has sent to the peer.
    pub bytes_sent: u64,
    /// Received-but-unread bytes buffered in user space — these would be
    /// lost with the old kernel socket, so they ride in the image.
    pub unread: Vec<u8>,
}

impl SocketState {
    /// Serialize (fixed byte order).
    pub fn pack(&self, out: &mut BytesMut) {
        out.put_u64(self.bytes_received);
        out.put_u64(self.bytes_sent);
        out.put_u16(self.peer.len() as u16);
        out.put_slice(self.peer.as_bytes());
        out.put_u32(self.unread.len() as u32);
        out.put_slice(&self.unread);
    }

    /// Deserialize.
    pub fn unpack(buf: &mut Bytes) -> Result<SocketState, IoError> {
        if buf.remaining() < 18 {
            return Err(IoError::BadState("truncated socket state".into()));
        }
        let bytes_received = buf.get_u64();
        let bytes_sent = buf.get_u64();
        let n = buf.get_u16() as usize;
        if buf.remaining() < n + 4 {
            return Err(IoError::BadState("truncated peer".into()));
        }
        let peer = String::from_utf8(buf.copy_to_bytes(n).to_vec())
            .map_err(|_| IoError::BadState("non-UTF-8 peer".into()))?;
        let u = buf.get_u32() as usize;
        if buf.remaining() < u {
            return Err(IoError::BadState("truncated unread buffer".into()));
        }
        Ok(SocketState {
            peer,
            bytes_received,
            bytes_sent,
            unread: buf.copy_to_bytes(u).to_vec(),
        })
    }
}

/// A thread's complete I/O state: open files + live connections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoState {
    /// Open file cursors.
    pub files: Vec<FileCursor>,
    /// Live connections.
    pub sockets: Vec<SocketState>,
}

impl IoState {
    /// Serialize all I/O state into one buffer.
    pub fn pack(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u16(self.files.len() as u16);
        for f in &self.files {
            f.pack(&mut out);
        }
        out.put_u16(self.sockets.len() as u16);
        for s in &self.sockets {
            s.pack(&mut out);
        }
        out.freeze()
    }

    /// Deserialize; must consume the whole buffer.
    pub fn unpack(mut buf: Bytes) -> Result<IoState, IoError> {
        if buf.remaining() < 2 {
            return Err(IoError::BadState("truncated file count".into()));
        }
        let nf = buf.get_u16();
        let mut files = bounded_vec(
            nf,
            11, // mode + offset + empty path
            buf.remaining(),
            IoError::BadState("truncated cursor table".into()),
        )?;
        for _ in 0..nf {
            files.push(FileCursor::unpack(&mut buf)?);
        }
        if buf.remaining() < 2 {
            return Err(IoError::BadState("truncated socket count".into()));
        }
        let ns = buf.get_u16();
        let mut sockets = bounded_vec(
            ns,
            22, // two counters + empty peer + empty unread buffer
            buf.remaining(),
            IoError::BadState("truncated socket table".into()),
        )?;
        for _ in 0..ns {
            sockets.push(SocketState::unpack(&mut buf)?);
        }
        if buf.has_remaining() {
            return Err(IoError::BadState("trailing bytes".into()));
        }
        Ok(IoState { files, sockets })
    }

    /// Re-bind every cursor against the destination filesystem.
    pub fn rebind(&self, fs: &SimFs) -> Result<(), IoError> {
        for f in &self.files {
            f.rebind(fs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_fs() -> SimFs {
        let fs = SimFs::new();
        fs.put("/data/input.txt", b"hello heterogeneous world".to_vec());
        fs
    }

    #[test]
    fn read_write_and_offsets() {
        let fs = shared_fs();
        let mut c = fs.open("/data/input.txt", FileMode::Read).unwrap();
        assert_eq!(c.read(&fs, 5).unwrap(), b"hello");
        assert_eq!(c.offset, 5);
        assert_eq!(c.read(&fs, 100).unwrap(), b" heterogeneous world");
        assert_eq!(c.read(&fs, 10).unwrap(), b"");
    }

    #[test]
    fn write_modes() {
        let fs = shared_fs();
        let mut ro = fs.open("/data/input.txt", FileMode::Read).unwrap();
        assert!(matches!(ro.write(&fs, b"x"), Err(IoError::ReadOnly(_))));

        let mut rw = fs.open("/data/out.bin", FileMode::ReadWrite).unwrap();
        rw.write(&fs, b"abc").unwrap();
        rw.offset = 1;
        rw.write(&fs, b"XY").unwrap();
        assert_eq!(fs.get("/data/out.bin").unwrap(), b"aXY");

        let mut ap = fs.open("/data/out.bin", FileMode::Append).unwrap();
        ap.offset = 0; // ignored by append
        ap.write(&fs, b"!").unwrap();
        assert_eq!(fs.get("/data/out.bin").unwrap(), b"aXY!");
    }

    #[test]
    fn open_missing_read_fails_but_write_creates() {
        let fs = SimFs::new();
        assert!(matches!(
            fs.open("/nope", FileMode::Read),
            Err(IoError::NotFound(_))
        ));
        assert!(fs.open("/new", FileMode::ReadWrite).is_ok());
        assert_eq!(fs.len_of("/new"), Some(0));
    }

    #[test]
    fn mid_read_migration_resumes_exactly() {
        // "Node A" reads 5 bytes, migrates; "node B" (its own SimFs handle
        // to the same share) resumes and reads the rest — nothing lost,
        // nothing replayed.
        let fs_a = shared_fs();
        let fs_b = fs_a.clone(); // same mounted share
        let mut cur = fs_a.open("/data/input.txt", FileMode::Read).unwrap();
        assert_eq!(cur.read(&fs_a, 5).unwrap(), b"hello");

        let state = IoState {
            files: vec![cur],
            sockets: vec![SocketState {
                peer: "home:4000".into(),
                bytes_received: 128,
                bytes_sent: 64,
                unread: b"pending".to_vec(),
            }],
        };
        let image = state.pack();
        let restored = IoState::unpack(image).unwrap();
        assert_eq!(restored, state);
        restored.rebind(&fs_b).unwrap();

        let mut cur_b = restored.files[0].clone();
        assert_eq!(cur_b.read(&fs_b, 14).unwrap(), b" heterogeneous");
        assert_eq!(restored.sockets[0].unread, b"pending");
    }

    #[test]
    fn rebind_fails_on_missing_destination_file() {
        let fs = shared_fs();
        let cur = fs.open("/data/input.txt", FileMode::Read).unwrap();
        let state = IoState {
            files: vec![cur],
            sockets: vec![],
        };
        let other = SimFs::new(); // destination without the share
        assert!(matches!(state.rebind(&other), Err(IoError::NotFound(_))));
    }

    #[test]
    fn truncated_io_state_rejected() {
        let fs = shared_fs();
        let cur = fs.open("/data/input.txt", FileMode::Read).unwrap();
        let state = IoState {
            files: vec![cur],
            sockets: vec![],
        };
        let image = state.pack();
        for cut in 0..image.len() {
            assert!(IoState::unpack(image.slice(..cut)).is_err(), "cut {cut}");
        }
        let mut with_garbage = BytesMut::from(&image[..]);
        with_garbage.put_u8(0);
        assert!(IoState::unpack(with_garbage.freeze()).is_err());
    }

    #[test]
    fn empty_io_state_roundtrips() {
        let st = IoState::default();
        assert_eq!(IoState::unpack(st.pack()).unwrap(), st);
    }
}
