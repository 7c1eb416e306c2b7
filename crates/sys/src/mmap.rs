//! Read-only file mappings and the checked `&[u8]` → `&[f32]` view the
//! sidecar matrices are served through.

use std::fs::File;

#[cfg(all(unix, target_pointer_width = "64"))]
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// An owned, private, read-only mapping of a file's first `len` bytes,
/// unmapped on drop.
///
/// Caveat shared with every file-mapping reader: truncating the file
/// while it is mapped turns reads past the new end into `SIGBUS`, so map
/// only files that are replaced by rename, never shortened in place.
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `ptr` addresses a `PROT_READ`, `MAP_PRIVATE` region this value
// alone owns and nothing ever writes through; `len` is plain data. Shared
// reads from any thread are sound, and so is unmapping from whichever
// thread drops it.
unsafe impl Send for Mmap {}
// SAFETY: as above — `&Mmap` only hands out `&[u8]` over immutable pages.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps the first `len` bytes of `file` read-only. `None` when `len`
    /// is 0 (a zero-length mapping is `EINVAL`), when the kernel refuses,
    /// or on a target whose `mmap` does not take the 64-bit offset
    /// declared here; callers fall back to reading the file.
    #[must_use]
    pub fn map(file: &File, len: usize) -> Option<Mmap> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if len > 0 {
            use std::os::fd::AsRawFd;
            const PROT_READ: i32 = 1;
            const MAP_PRIVATE: i32 = 2;
            // SAFETY: a null hint lets the kernel choose the address, the
            // fd is open for the duration of the call (the mapping
            // outlives it by design), and a failure is reported as
            // `MAP_FAILED`, checked below — no memory is touched here.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize != usize::MAX {
                return Some(Mmap { ptr, len });
            }
        }
        let _ = (file, len); // unused where the branch above is compiled out
        None
    }

    /// The mapped bytes.
    #[inline]
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `map` is the only constructor, so `ptr..ptr + len` is a
        // live read-only mapping until `drop`, which `&self` outlasts;
        // nothing writes to it, and `u8` has no alignment or validity
        // requirement.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        // SAFETY: exactly the region `mmap` returned, unmapped once; no
        // borrow of `bytes()` can outlive `self`.
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}

/// `bytes` viewed as native-endian `f32`s, or `None` when the slice does
/// not start on a 4-byte boundary or is not a whole number of values.
#[inline]
#[must_use]
pub fn as_f32s(bytes: &[u8]) -> Option<&[f32]> {
    let width = std::mem::size_of::<f32>();
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f32>())
        || !bytes.len().is_multiple_of(width)
    {
        return None;
    }
    // SAFETY: the base is aligned for `f32` and the length a multiple of
    // its size (both checked above), the values lie inside `bytes` and
    // borrow from it, and every bit pattern is a valid `f32`.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / width) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_equals_read_and_empty_file_is_none() {
        let dir = std::env::temp_dir().join(format!("gt_sys_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bytes.bin");
        let content: Vec<u8> = (0..20_000u32).flat_map(u32::to_le_bytes).collect();
        std::fs::write(&path, &content).unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file, content.len()).expect("64-bit unix maps a regular file");
        drop(file); // the mapping outlives the descriptor
        assert_eq!(map.bytes(), std::fs::read(&path).unwrap());

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        assert!(Mmap::map(&File::open(&empty).unwrap(), 0).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn f32_view_refuses_misaligned_and_ragged_slices() {
        let values = [1.5f32, -0.0, f32::MAX, 3.25];
        let mut buf = [0u8; 16 + 8];
        // Safe code cannot ask for an aligned `Vec<u8>`; find the boundary.
        let at = buf.as_ptr().align_offset(std::mem::align_of::<f32>());
        for (i, v) in values.iter().enumerate() {
            buf[at + 4 * i..at + 4 * i + 4].copy_from_slice(&v.to_ne_bytes());
        }
        let got = as_f32s(&buf[at..at + 16]).expect("aligned, whole values");
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(as_f32s(&buf[at..at]), Some(&[][..]));
        assert!(as_f32s(&buf[at + 1..at + 17]).is_none(), "misaligned by 1");
        assert!(as_f32s(&buf[at + 2..at + 10]).is_none(), "misaligned by 2");
        assert!(as_f32s(&buf[at..at + 15]).is_none(), "ragged");
    }
}
