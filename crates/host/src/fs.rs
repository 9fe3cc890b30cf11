//! A small extent-based guest filesystem and its hypervisor-mounted view.
//!
//! Each VM's virtual disk is one *object* ([`ObjectId`]) — an image file
//! on the host's SSD. The guest filesystem maps paths to inodes, and
//! inodes to extents inside the image. HDFS stores its blocks as regular
//! files here, exactly as on a real datanode.
//!
//! The hypervisor-side vRead daemon mounts the image read-only
//! (`losetup`/`kpartx` in the paper) and therefore sees a **snapshot** of
//! the namespace: files created after the mount are invisible until the
//! mount point's dentry/inode information is refreshed. [`FsSnapshot`]
//! models exactly that, and `vread-core` refreshes it on the namenode's
//! new-block notification — the paper's `vRead_update` protocol. Because
//! HDFS is write-once/read-many, data extents never change after a block
//! is finalized, so snapshot reads need no other synchronization (§3.2).

use std::collections::BTreeMap;
use std::fmt;

/// A host-level storage object (a VM disk-image file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Constructs from a raw id (minted by [`crate::Cluster`]).
    pub const fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// An inode number within one guest filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(u32);

impl FileId {
    /// Constructs from a raw inode number.
    pub const fn from_raw(raw: u32) -> Self {
        FileId(raw)
    }

    /// The raw inode number.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// A contiguous run of bytes inside the disk image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Offset within the image object.
    pub image_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path already exists (create) .
    Exists(String),
    /// Path not found.
    NotFound(String),
    /// Read past end of file: `(requested end, file size)`.
    BeyondEof(u64, u64),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Exists(p) => write!(f, "path exists: {p}"),
            FsError::NotFound(p) => write!(f, "path not found: {p}"),
            FsError::BeyondEof(end, size) => {
                write!(f, "read to {end} beyond end of file (size {size})")
            }
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Debug, Clone)]
struct Inode {
    size: u64,
    extents: Vec<Extent>,
}

/// The guest filesystem of one VM.
///
/// ```rust
/// use vread_host::fs::{GuestFs, ObjectId};
///
/// let mut fs = GuestFs::new(ObjectId::from_raw(7));
/// let blk = fs.create("/hdfs/data/blk_1")?;
/// fs.append(blk, 4096);
/// let extents = fs.resolve(blk, 0, 4096)?;
/// assert_eq!(extents[0].len, 4096);
/// # Ok::<(), vread_host::fs::FsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GuestFs {
    image: ObjectId,
    files: BTreeMap<String, FileId>,
    inodes: Vec<Inode>,
    next_offset: u64,
    /// Bumped on every namespace change (a create).
    pub namespace_version: u64,
}

impl GuestFs {
    /// Creates an empty filesystem on image `image`.
    pub fn new(image: ObjectId) -> Self {
        GuestFs {
            image,
            files: BTreeMap::new(),
            inodes: Vec::new(),
            next_offset: 0,
            namespace_version: 0,
        }
    }

    /// The disk image this filesystem lives on.
    pub fn image(&self) -> ObjectId {
        self.image
    }

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Exists`] if the path is taken.
    pub fn create(&mut self, path: &str) -> Result<FileId, FsError> {
        if self.files.contains_key(path) {
            return Err(FsError::Exists(path.to_owned()));
        }
        let id = FileId(self.inodes.len().try_into().expect("inode table fits u32"));
        self.inodes.push(Inode {
            size: 0,
            extents: Vec::new(),
        });
        self.files.insert(path.to_owned(), id);
        self.namespace_version += 1;
        Ok(id)
    }

    /// Appends `len` bytes to `file`, allocating a fresh extent, and
    /// returns it.
    ///
    /// # Panics
    ///
    /// Panics if `file` is not a valid inode of this filesystem.
    pub fn append(&mut self, file: FileId, len: u64) -> Extent {
        let ext = Extent {
            image_offset: self.next_offset,
            len,
        };
        self.next_offset += len;
        let inode = &mut self.inodes[file.0 as usize];
        inode.size += len;
        // Coalesce with the previous extent when contiguous (common case:
        // sequential block writes).
        if let Some(last) = inode.extents.last_mut() {
            if last.image_offset + last.len == ext.image_offset {
                last.len += ext.len;
                return Extent {
                    image_offset: ext.image_offset,
                    len,
                };
            }
        }
        inode.extents.push(ext);
        ext
    }

    /// Looks a path up in the live namespace.
    pub fn lookup(&self, path: &str) -> Option<FileId> {
        self.files.get(path).copied()
    }

    /// Current size of a file.
    pub fn size(&self, file: FileId) -> u64 {
        self.inodes[file.0 as usize].size
    }

    /// Resolves `[offset, offset+len)` of `file` to image extents.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BeyondEof`] if the range extends past the file.
    pub fn resolve(&self, file: FileId, offset: u64, len: u64) -> Result<Vec<Extent>, FsError> {
        let mut cursor = self.cursor(file, offset, len)?;
        let mut out = Vec::new();
        while let Some(e) = cursor.advance(self) {
            out.push(e);
        }
        Ok(out)
    }

    /// Like [`GuestFs::resolve`], but hands the extents out one at a
    /// time through a cursor instead of collecting them: no allocation,
    /// and the filesystem is borrowed only for each step, so the caller
    /// may mutate the rest of the cluster between steps (per-chunk read
    /// paths).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BeyondEof`] if the range extends past the file.
    pub fn cursor(&self, file: FileId, offset: u64, len: u64) -> Result<ExtentCursor, FsError> {
        let size = self.inodes[file.0 as usize].size;
        if offset + len > size {
            return Err(FsError::BeyondEof(offset + len, size));
        }
        Ok(ExtentCursor {
            file,
            next_ext: 0,
            pos: 0,
            need_off: offset,
            need_len: len,
        })
    }

    /// Takes a mount-time snapshot of the namespace (what `losetup` +
    /// `mount -o ro` exposes to the hypervisor).
    pub fn snapshot(&self) -> FsSnapshot {
        FsSnapshot {
            files: self
                .files
                .iter()
                .map(|(p, id)| (p.clone(), (*id, self.inodes[id.0 as usize].size)))
                .collect(),
        }
    }
}

/// Walks the image extents backing a file range, in file order; see
/// [`GuestFs::cursor`].
#[derive(Debug, Clone, Copy)]
pub struct ExtentCursor {
    file: FileId,
    /// Index of the next inode extent to examine.
    next_ext: usize,
    /// Logical position of that extent's start.
    pos: u64,
    need_off: u64,
    need_len: u64,
}

impl ExtentCursor {
    /// The next extent of the range, or `None` when it is exhausted.
    /// `fs` must be the filesystem the cursor came from.
    pub fn advance(&mut self, fs: &GuestFs) -> Option<Extent> {
        let extents = &fs.inodes[self.file.0 as usize].extents;
        while self.need_len > 0 {
            let Some(ext) = extents.get(self.next_ext) else {
                debug_assert_eq!(self.need_len, 0, "extent bookkeeping out of sync with size");
                return None;
            };
            self.next_ext += 1;
            let start = self.pos;
            self.pos += ext.len;
            if self.need_off < self.pos {
                let inner = self.need_off - start;
                let take = (ext.len - inner).min(self.need_len);
                self.need_off += take;
                self.need_len -= take;
                return Some(Extent {
                    image_offset: ext.image_offset + inner,
                    len: take,
                });
            }
        }
        None
    }
}

/// The hypervisor's read-only mounted view of a [`GuestFs`].
///
/// Lookups go through the dentry/inode information captured at the last
/// refresh; blocks written by the datanode after that are invisible until
/// `vRead_update` replaces it with a fresh [`GuestFs::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct FsSnapshot {
    files: BTreeMap<String, (FileId, u64)>,
}

impl FsSnapshot {
    /// Looks up `(inode, size-at-refresh)` in the mounted view.
    pub fn lookup(&self, path: &str) -> Option<(FileId, u64)> {
        self.files.get(path).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> GuestFs {
        GuestFs::new(ObjectId::from_raw(9))
    }

    #[test]
    fn create_append_resolve() {
        let mut f = fs();
        let id = f.create("/hdfs/blk_1").unwrap();
        f.append(id, 1000);
        f.append(id, 500);
        assert_eq!(f.size(id), 1500);
        let exts = f.resolve(id, 0, 1500).unwrap();
        // contiguous appends coalesce into one extent
        assert_eq!(exts.len(), 1);
        assert_eq!(exts[0].len, 1500);
    }

    #[test]
    fn resolve_subrange_with_interleaved_files() {
        let mut f = fs();
        let a = f.create("/a").unwrap();
        let b = f.create("/b").unwrap();
        f.append(a, 1000); // a: [0,1000)
        f.append(b, 1000); // b: [1000,2000)
        f.append(a, 1000); // a: [2000,3000)
        let exts = f.resolve(a, 500, 1000).unwrap();
        assert_eq!(exts.len(), 2);
        // The cursor hands out the same extents one at a time.
        let mut cursor = f.cursor(a, 500, 1000).unwrap();
        assert_eq!(cursor.advance(&f), Some(exts[0]));
        assert_eq!(cursor.advance(&f), Some(exts[1]));
        assert_eq!(cursor.advance(&f), None);
        assert!(matches!(
            f.cursor(a, 1500, 600),
            Err(FsError::BeyondEof(2100, 2000))
        ));
        assert_eq!(
            exts[0],
            Extent {
                image_offset: 500,
                len: 500
            }
        );
        assert_eq!(
            exts[1],
            Extent {
                image_offset: 2000,
                len: 500
            }
        );
    }

    #[test]
    fn resolve_beyond_eof_errors() {
        let mut f = fs();
        let a = f.create("/a").unwrap();
        f.append(a, 100);
        assert!(matches!(
            f.resolve(a, 50, 100),
            Err(FsError::BeyondEof(150, 100))
        ));
    }

    #[test]
    fn duplicate_create_fails() {
        let mut f = fs();
        f.create("/a").unwrap();
        assert!(matches!(f.create("/a"), Err(FsError::Exists(_))));
    }

    #[test]
    fn create_bumps_version() {
        let mut f = fs();
        let v0 = f.namespace_version;
        f.create("/a").unwrap();
        assert_eq!(f.namespace_version, v0 + 1);
        assert!(f.create("/a").is_err());
        assert_eq!(
            f.namespace_version,
            v0 + 1,
            "a failed create changes nothing"
        );
    }

    #[test]
    fn snapshot_hides_new_files_until_refresh() {
        let mut f = fs();
        let a = f.create("/blk_1").unwrap();
        f.append(a, 4096);
        let mut snap = f.snapshot();
        assert_eq!(snap.lookup("/blk_1"), Some((a, 4096)));

        // datanode writes a new block: invisible through the stale mount
        let b = f.create("/blk_2").unwrap();
        f.append(b, 8192);
        assert_eq!(snap.lookup("/blk_2"), None);

        snap = f.snapshot(); // the `vRead_update` mount refresh
        assert_eq!(snap.lookup("/blk_2"), Some((b, 8192)));
    }

    #[test]
    fn snapshot_size_is_frozen_but_appends_dont_stale_namespace() {
        let mut f = fs();
        let a = f.create("/blk").unwrap();
        f.append(a, 100);
        let mut snap = f.snapshot();
        // append-only growth does not change the namespace version …
        let v = f.namespace_version;
        f.append(a, 100);
        assert_eq!(f.namespace_version, v);
        // … but the mounted view still reports the old size (the paper
        // only calls vRead_update once a block is complete).
        assert_eq!(snap.lookup("/blk").unwrap().1, 100);
        assert_eq!(f.size(a), 200);
        snap = f.snapshot(); // the `vRead_update` mount refresh
        assert_eq!(snap.lookup("/blk").unwrap().1, 200);
    }
}
