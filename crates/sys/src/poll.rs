//! A level-triggered readiness set over `poll(2)` — the same call on
//! every unix.

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// `struct pollfd`, laid out identically on every unix.
#[repr(C)]
#[derive(Debug)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs, macOS
/// and Android.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

const POLLIN: c_short = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// The file descriptors a thread waits on for read readiness. Slots are
/// dense indices, as in a `Vec`: [`PollSet::push`] appends,
/// [`PollSet::remove`] fills the hole with the last slot.
///
/// Level-triggered: a descriptor pushed with bytes already pending is
/// ready on the very next [`PollSet::wait`], and stays ready until they
/// are read — there is no arrival/registration race to close. The cost is
/// that every wait hands the kernel the whole set, O(slots) per wake.
///
/// The set borrows nothing: the caller keeps each descriptor open for as
/// long as its slot exists (a closed one reads as ready, `POLLNVAL`, and
/// is never dereferenced).
#[derive(Debug, Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Appends `fd`, watched for read readiness; returns its slot.
    pub fn push(&mut self, fd: RawFd) -> usize {
        self.fds.push(PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Removes `slot`; the last slot takes its place (`Vec::swap_remove`),
    /// so a caller keeping per-slot state beside the set removes from it
    /// the same way. Removing ready slots highest first keeps the slots
    /// still to be visited where they were.
    ///
    /// # Panics
    /// When `slot` is not a slot of the set.
    pub fn remove(&mut self, slot: usize) {
        self.fds.swap_remove(slot);
    }

    /// Waits up to `timeout` (rounded down to milliseconds) and appends
    /// the ready slots to `ready`, ascending. A slot is ready when the
    /// kernel reports anything at all for it: bytes to read, end of
    /// stream, a hang-up or an error all need its owner's attention. A
    /// signal interrupting the wait (`EINTR`) reads as an empty wake-up.
    ///
    /// # Errors
    /// The raw `poll` error (never `EINTR`).
    pub fn wait(&mut self, timeout: Duration, ready: &mut Vec<usize>) -> io::Result<()> {
        let ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        let nfds = Nfds::try_from(self.fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
        // SAFETY: the pointer and count describe `self.fds`' initialised
        // elements, exclusively borrowed for the call; the kernel writes
        // only their `revents` fields, for which every value is valid.
        let n = unsafe { poll(self.fds.as_mut_ptr(), nfds, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        let mut left = n.unsigned_abs() as usize;
        for (slot, fd) in self.fds.iter().enumerate() {
            if left == 0 {
                break;
            }
            if fd.revents != 0 {
                ready.push(slot);
                left -= 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn connected_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (client, server_side)
    }

    #[test]
    fn reports_readable_connection() {
        let (mut client, server_side) = connected_pair();
        let (_quiet_client, quiet) = connected_pair();

        let mut set = PollSet::new();
        assert_eq!(set.push(quiet.as_raw_fd()), 0);

        // Nothing pending: the wait times out empty.
        let mut ready = Vec::new();
        set.wait(Duration::from_millis(10), &mut ready).unwrap();
        assert!(ready.is_empty());

        // Bytes already written BEFORE the registration still fire —
        // level triggering closes the park/arrival race.
        client.write_all(b"ping").unwrap();
        assert_eq!(set.push(server_side.as_raw_fd()), 1);
        set.wait(Duration::from_millis(500), &mut ready).unwrap();
        assert_eq!(ready, vec![1]);

        // Level-triggered: unread data keeps firing.
        ready.clear();
        set.wait(Duration::from_millis(10), &mut ready).unwrap();
        assert_eq!(ready, vec![1]);

        set.remove(1);
        ready.clear();
        set.wait(Duration::from_millis(10), &mut ready).unwrap();
        assert!(ready.is_empty());
    }

    #[test]
    fn removal_moves_the_last_slot_into_the_hole() {
        let (_c0, s0) = connected_pair();
        let (_c1, s1) = connected_pair();
        let (mut c2, s2) = connected_pair();
        let mut set = PollSet::new();
        for s in [&s0, &s1, &s2] {
            set.push(s.as_raw_fd());
        }
        c2.write_all(b"x").unwrap();
        set.remove(0); // s2 now waits in slot 0
        let mut ready = Vec::new();
        set.wait(Duration::from_millis(500), &mut ready).unwrap();
        assert_eq!(ready, vec![0]);
    }

    #[test]
    fn peer_hang_up_reads_as_ready() {
        let (client, server_side) = connected_pair();
        let mut set = PollSet::new();
        set.push(server_side.as_raw_fd());
        drop(client);
        let mut ready = Vec::new();
        set.wait(Duration::from_millis(500), &mut ready).unwrap();
        assert_eq!(ready, vec![0], "a closed peer must wake its owner");
    }
}
