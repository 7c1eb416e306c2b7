//! `gittables-sys` — every foreign call of the workspace, and its only
//! `unsafe`.
//!
//! Each other crate opens with `#![forbid(unsafe_code)]`; what they need
//! from the operating system beyond `std` is declared here against the
//! libc `std` already links (no `libc` crate: the build is offline), five
//! symbols in all, each behind a safe wrapper:
//!
//! | symbol            | wrapper                        | why `std` cannot do it                          |
//! |-------------------|--------------------------------|-------------------------------------------------|
//! | `mmap`, `munmap`  | [`Mmap`]                       | `std` reads files, it does not map them         |
//! | `poll`            | [`PollSet`]                    | `std` has no readiness wait over several fds    |
//! | `signal`          | [`raise_flag_on`]              | `std` installs no signal handlers               |
//! | `kill`            | [`kill_self`]                  | a simulated crash needs `SIGKILL`; `std` only aborts (`SIGABRT`) |
//!
//! [`as_f32s`] wraps no foreign call; it is here because viewing mapped
//! bytes as `f32`s needs `unsafe`, and this is where `unsafe` lives.
//!
//! Nothing else is declared by hand, because `std` covers it: on unix
//! `std::thread::sleep` resumes after `EINTR` until the whole duration
//! has elapsed, a non-blocking `std::os::unix::net::UnixStream::pair` is
//! the server's shutdown wake-up, and `std::process::id` is the
//! pid [`kill_self`] aims at.
//!
//! The supported platform is **unix**. Nothing here selects between
//! implementations: `poll(2)` is the same call on every unix, and the two
//! `cfg`s left are ABI facts — the width of `nfds_t`, and `mmap`'s
//! `off_t` being 64 bits wide only on 64-bit targets ([`Mmap::map`]
//! reports `None` elsewhere and callers read the file instead).
//!
//! `tests/unsafe_inventory.rs` at the workspace root reads the tree and
//! fails when another crate drops the `forbid` or this one declares a
//! sixth symbol.

#![warn(missing_docs)]

mod mmap;
mod poll;
mod signal;

pub use mmap::{as_f32s, Mmap};
pub use poll::PollSet;
pub use signal::{kill_self, raise_flag_on, Signal};
