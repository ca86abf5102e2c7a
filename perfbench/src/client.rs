//! The benchmark's client: issues each op's syscalls, times it, and checks
//! what it read against the model.
//!
//! Data is produced before an op's clock starts and checked after it
//! stops.  In the traced run every syscall is also bracketed as a `vfs`
//! span and given a `simkernel::trace` span, whose phase breakdown
//! (commit-wait, log-reserve, nslock) the program already records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bento::BentoFs;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::trace::{self, Phase};
use simkernel::vfs::{OpenFlags, Vfs};

use crate::layers::{self, Layer, TimedFs};
use crate::model::FileModel;

/// Syscalls that change the namespace (their nslock wait is reported).
const NAMESPACE_SYSCALLS: [&str; 3] = ["create", "unlink", "rename"];

/// Process-wide op ids, so spans from every thread can be told apart.
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// What one client observed.  Merged across threads and rounds.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    /// Ops issued (mix, probes and upgrades) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Mix ops only: the fixed count behind `ops_per_s`.
    pub mix_ops: u64,
    /// Latencies in ns: whole-file read ops, fsync syscalls, creating
    /// opens, and upgrade calls.
    pub read_ns: Vec<u64>,
    pub fsync_ns: Vec<u64>,
    pub create_ns: Vec<u64>,
    pub upgrade_ns: Vec<u64>,
    /// Check failures: what differed from the model, and failed ops.
    pub mismatches: Vec<String>,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub namespace_ops: u64,
    /// Phase time (ns) from `simkernel::trace`, traced runs only.
    pub commit_wait_in_fsync_ns: u64,
    pub log_reserve_ns: u64,
    pub nslock_in_namespace_ns: u64,
}

impl ClientStats {
    pub fn merge(&mut self, other: ClientStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mix_ops += other.mix_ops;
        self.read_ns.extend(other.read_ns);
        self.fsync_ns.extend(other.fsync_ns);
        self.create_ns.extend(other.create_ns);
        self.upgrade_ns.extend(other.upgrade_ns);
        self.mismatches.extend(other.mismatches);
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.namespace_ops += other.namespace_ops;
        self.commit_wait_in_fsync_ns += other.commit_wait_in_fsync_ns;
        self.log_reserve_ns += other.log_reserve_ns;
        self.nslock_in_namespace_ns += other.nslock_in_namespace_ns;
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 16 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 16 {
            self.mismatches.push("(further mismatches not listed)".into());
        }
    }
}

/// One load thread's handle on the mounted stack.
pub struct Client<'a> {
    pub vfs: &'a Vfs,
    traced: bool,
    pub stats: ClientStats,
}

impl<'a> Client<'a> {
    pub fn new(vfs: &'a Vfs, traced: bool) -> Client<'a> {
        Client { vfs, traced, stats: ClientStats::default() }
    }

    /// Issues one syscall; in the traced run, brackets it as a `vfs` span
    /// and collects its phase breakdown.
    pub fn sys<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&Vfs) -> KernelResult<T>,
    ) -> KernelResult<T> {
        if !self.traced {
            return call(self.vfs);
        }
        let _frame = layers::enter(Layer::Vfs, name);
        let span = trace::op_span(name);
        let result = call(self.vfs);
        if let Some(record) = span.finish() {
            self.stats.log_reserve_ns += record.phase_ns[Phase::LogReserve.index()];
            if name == "fsync" {
                self.stats.commit_wait_in_fsync_ns += record.phase_ns[Phase::CommitWait.index()];
            }
            if NAMESPACE_SYSCALLS.contains(&name) {
                self.stats.nslock_in_namespace_ns += record.phase_ns[Phase::NsLock.index()];
            }
        }
        if NAMESPACE_SYSCALLS.contains(&name) {
            self.stats.namespace_ops += 1;
        }
        result
    }

    /// Runs client-side work (data generation, checking) as a `client` span.
    pub fn client_work<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let _frame = layers::enter(Layer::Client, name);
        work()
    }

    /// Runs one op: a fresh op id, an `op` span, and failure accounting.
    /// Returns the op's latency, or `None` if it failed.
    pub fn op(
        &mut self,
        name: &'static str,
        mix: bool,
        body: impl FnOnce(&mut Self) -> KernelResult<()>,
    ) -> Option<u64> {
        layers::set_op(NEXT_OP.fetch_add(1, Ordering::Relaxed));
        self.stats.attempted += 1;
        if mix {
            self.stats.mix_ops += 1;
        }
        let started = Instant::now();
        let result = {
            let _frame = layers::enter(Layer::Op, name);
            body(self)
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        match result {
            Ok(()) => Some(elapsed),
            Err(e) => {
                // No op of a workload is expected to fail: a failure makes
                // the round incorrect, not just a count.
                self.stats.failed += 1;
                self.stats.mismatch(format!("op {name} failed: {e}"));
                None
            }
        }
    }

    fn write_all(&mut self, fd: u64, data: &[u8]) -> KernelResult<()> {
        let mut done = 0;
        while done < data.len() {
            let n = self.sys("write", |v| v.write(fd, &data[done..]))?;
            if n == 0 {
                return Err(KernelError::with_context(Errno::Io, "write made no progress"));
            }
            done += n;
        }
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Closes `fd` after `result`, keeping the first error.
    fn finish_fd(&mut self, fd: u64, result: KernelResult<()>) -> KernelResult<()> {
        let closed = self.sys("close", |v| v.close(fd));
        result.and(closed)
    }

    /// Writes `data` through `fd`, optionally fsyncs, and closes `fd`.
    fn write_and_close(&mut self, fd: u64, data: &[u8], fsync: bool) -> KernelResult<()> {
        let mut result = self.write_all(fd, data);
        if fsync && result.is_ok() {
            result = self.timed_fsync(fd);
        }
        self.finish_fd(fd, result)
    }

    fn timed_fsync(&mut self, fd: u64) -> KernelResult<()> {
        let started = Instant::now();
        self.sys("fsync", |v| v.fsync(fd))?;
        self.stats.fsync_ns.push(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Opens `path` with `O_CREAT|O_EXCL`, timing the creating open.
    pub fn create_open(&mut self, path: &str, extra: OpenFlags) -> KernelResult<u64> {
        let flags = OpenFlags::WRONLY.with(OpenFlags::CREAT).with(OpenFlags::EXCL).with(extra);
        let started = Instant::now();
        let fd = self.sys("create", |v| v.open(path, flags))?;
        self.stats.create_ns.push(started.elapsed().as_nanos() as u64);
        Ok(fd)
    }

    /// Creates `file` (new to the tree), writes `len` bytes, optionally
    /// fsyncs, closes.
    pub fn create_write(&mut self, file: &mut FileModel, len: u64, fsync: bool, mix: bool) {
        let data = self.client_work("generate", || file.rewrite(len));
        let path = file.path.clone();
        self.op("create_write", mix, |c| {
            let fd = c.create_open(&path, OpenFlags::default())?;
            c.write_and_close(fd, &data, fsync)
        });
    }

    /// Appends `len` bytes to `file`, optionally fsyncs, closes.
    pub fn append(&mut self, file: &mut FileModel, len: u64, fsync: bool, mix: bool) {
        let data = self.client_work("generate", || file.append(len));
        let path = file.path.clone();
        self.op("append", mix, |c| {
            let fd = c.sys("open", |v| v.open(&path, OpenFlags::WRONLY.with(OpenFlags::APPEND)))?;
            c.write_and_close(fd, &data, fsync)
        });
    }

    /// Reads `file` whole and checks every byte against the model.  The
    /// buffer is allocated before the clock starts; reads fill it in place.
    pub fn read_whole(&mut self, file: &FileModel, mix: bool) {
        let mut data = self.client_work("generate", || vec![0u8; file.size() as usize + 4096]);
        let mut len = 0;
        let latency = self.op("read", mix, |c| {
            let fd = c.sys("open", |v| v.open(&file.path, OpenFlags::RDONLY))?;
            let result = loop {
                match c.sys("read", |v| v.read(fd, &mut data[len..])) {
                    Ok(0) => break Ok(()),
                    Ok(n) if len + n < data.len() => len += n,
                    Ok(_) => {
                        break Err(KernelError::with_context(Errno::FBig, "file outgrew its model"))
                    }
                    Err(e) => break Err(e),
                }
            };
            c.finish_fd(fd, result)
        });
        if let Some(ns) = latency {
            self.stats.read_ns.push(ns);
            self.stats.bytes_read += len as u64;
            let bad = self.client_work("check", || file.first_mismatch(&data[..len]));
            if let Some(at) = bad {
                self.stats.mismatch(format!(
                    "read of {} ({len} bytes, model {}) differs at byte {at}",
                    file.path,
                    file.size()
                ));
            }
        }
    }

    /// Stats `file` and checks its size against the model.
    pub fn stat(&mut self, file: &FileModel) {
        let mut size = 0;
        let latency = self.op("stat", true, |c| {
            size = c.sys("stat", |v| v.stat(&file.path))?.size;
            Ok(())
        });
        if latency.is_some() && size != file.size() {
            self.stats.mismatch(format!(
                "stat of {} gave size {size}, model {}",
                file.path,
                file.size()
            ));
        }
    }

    pub fn unlink(&mut self, path: &str, mix: bool) {
        self.op("unlink", mix, |c| c.sys("unlink", |v| v.unlink(path)));
    }

    pub fn rename(&mut self, old: &str, new: &str) {
        self.op("rename", true, |c| c.sys("rename", |v| v.rename(old, new)));
    }

    /// Appends `data` through an already open `O_APPEND` descriptor, then
    /// optionally fsyncs it.
    pub fn fd_append(&mut self, fd: u64, data: &[u8], fsync: bool) {
        self.op("log_append", true, |c| {
            c.write_all(fd, data)?;
            if fsync {
                c.timed_fsync(fd)?;
            }
            Ok(())
        });
    }

    /// Swaps the mounted BentoFS's file system for a fresh xv6fs instance
    /// (wrapped in the traced run), timing just the `upgrade` call.  A
    /// failed upgrade counts as a failed op.
    pub fn upgrade(&mut self) {
        let traced = self.traced;
        let mut pause_ns = None;
        self.op("upgrade", false, |c| {
            let fs = c.vfs.mounted_fs("/")?;
            let bento = fs
                .as_any()
                .and_then(|any| any.downcast_ref::<BentoFs>())
                .ok_or_else(|| KernelError::with_context(Errno::Inval, "mount is not BentoFS"))?;
            let fresh: Box<dyn bento::FileSystem> = if traced {
                Box::new(TimedFs::new(Box::new(xv6fs::Xv6FileSystem::new())))
            } else {
                Box::new(xv6fs::Xv6FileSystem::new())
            };
            let _frame = layers::enter(Layer::Upgrade, "upgrade");
            let started = Instant::now();
            bento.upgrade(fresh)?;
            pause_ns = Some(started.elapsed().as_nanos() as u64);
            Ok(())
        });
        self.stats.upgrade_ns.extend(pause_ns);
    }
}
