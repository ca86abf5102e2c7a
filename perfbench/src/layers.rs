//! Per-layer timing from outside the program.
//!
//! The traced run wraps three layers at their public traits: the mounted
//! [`VfsFs`] (BentoFS), the Bento [`FileSystem`] (xv6fs) and the
//! [`BlockDevice`].  The benchmark's client brackets its own `Vfs` calls,
//! ops, upgrades and data generation/checking.  Each bracket records a
//! [`Span`] (layer, start, end, the id of the application op that caused
//! it, and the time its child spans covered) into per-thread memory; a
//! layer's self time is its span minus its children.  No tracing is added
//! inside the program.
//!
//! The wrappers forward every trait method, defaulted ones included, so a
//! wrapped stack behaves exactly like an unwrapped one (`selfcheck` shows
//! it).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bento::fileops::{CreateReply, FileSystem, Request};
use bento::{StateBundle, SuperBlock};
use simkernel::dev::{BlockDevice, DeviceStats};
use simkernel::error::KernelResult;
use simkernel::vfs::{
    DirEntry, FileMode, FsOpStats, InodeAttr, OpenFlags, SetAttr, StatFs, VfsFs, WritePathStats,
};

/// The layer a span belongs to, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// One application op of the workload mix (or a probe op).
    Op,
    /// One `Vfs` syscall issued by the client.
    Vfs,
    /// One call into the mounted `VfsFs` (BentoFS).
    Bento,
    /// One call into the Bento `FileSystem` (xv6fs).
    Xv6,
    /// One call into the block device.
    Dev,
    /// One `BentoFs::upgrade` call.
    Upgrade,
    /// The client generating or checking data (never inside an op's clock).
    Client,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Vfs => "vfs",
            Layer::Bento => "bento",
            Layer::Xv6 => "xv6fs",
            Layer::Dev => "dev",
            Layer::Upgrade => "upgrade",
            Layer::Client => "client",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Time covered by spans opened while this one was open, on its thread.
    pub child_ns: u64,
}

impl Span {
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first use of the span clock.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// Child time accumulated by each open span, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// Turns span recording on or off for every thread.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Sets the op id this thread's spans are charged to.
pub fn set_op(op: u64) {
    CURRENT_OP.with(|c| c.set(op));
}

/// Takes every span this thread recorded so far.
pub fn take_thread_spans() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// An open span; records itself when dropped.  Inert when recording was off
/// at the time it was opened.
pub struct Frame {
    layer: Layer,
    name: &'static str,
    start_ns: Option<u64>,
}

/// Opens a span of `layer` for the call `name`.
pub fn enter(layer: Layer, name: &'static str) -> Frame {
    if !RECORDING.load(Ordering::Relaxed) {
        return Frame { layer, name, start_ns: None };
    }
    OPEN.with(|o| o.borrow_mut().push(0));
    Frame { layer, name, start_ns: Some(now_ns()) }
}

impl Drop for Frame {
    fn drop(&mut self) {
        let Some(start_ns) = self.start_ns else { return };
        let dur_ns = now_ns().saturating_sub(start_ns);
        let child_ns = OPEN.with(|o| {
            let mut open = o.borrow_mut();
            let child = open.pop().unwrap_or(0);
            if let Some(parent) = open.last_mut() {
                *parent += dur_ns;
            }
            child
        });
        let span = Span {
            layer: self.layer,
            name: self.name,
            op: CURRENT_OP.with(Cell::get),
            start_ns,
            dur_ns,
            child_ns,
        };
        SPANS.with(|s| s.borrow_mut().push(span));
    }
}

/// The mounted `VfsFs` (BentoFS), timed at every operation.
pub struct TimedVfsFs {
    inner: Arc<dyn VfsFs>,
}

impl TimedVfsFs {
    pub fn new(inner: Arc<dyn VfsFs>) -> TimedVfsFs {
        TimedVfsFs { inner }
    }
}

impl VfsFs for TimedVfsFs {
    fn fs_name(&self) -> &str {
        self.inner.fs_name()
    }

    fn root_ino(&self) -> u64 {
        self.inner.root_ino()
    }

    fn write_path_stats(&self) -> Option<WritePathStats> {
        self.inner.write_path_stats()
    }

    fn op_stats(&self) -> Option<FsOpStats> {
        self.inner.op_stats()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Upgrade finds the concrete `BentoFs` through this.
        self.inner.as_any()
    }

    fn lookup(&self, dir: u64, name: &str) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Bento, "lookup");
        self.inner.lookup(dir, name)
    }

    fn getattr(&self, ino: u64) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Bento, "getattr");
        self.inner.getattr(ino)
    }

    fn setattr(&self, ino: u64, set: &SetAttr) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Bento, "setattr");
        self.inner.setattr(ino, set)
    }

    fn create(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Bento, "create");
        self.inner.create(dir, name, mode)
    }

    fn mkdir(&self, dir: u64, name: &str, mode: FileMode) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Bento, "mkdir");
        self.inner.mkdir(dir, name, mode)
    }

    fn unlink(&self, dir: u64, name: &str) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "unlink");
        self.inner.unlink(dir, name)
    }

    fn rmdir(&self, dir: u64, name: &str) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "rmdir");
        self.inner.rmdir(dir, name)
    }

    fn rename(&self, olddir: u64, oldname: &str, newdir: u64, newname: &str) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "rename");
        self.inner.rename(olddir, oldname, newdir, newname)
    }

    fn link(&self, ino: u64, newdir: u64, newname: &str) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Bento, "link");
        self.inner.link(ino, newdir, newname)
    }

    fn open(&self, ino: u64, flags: OpenFlags) -> KernelResult<u64> {
        let _f = enter(Layer::Bento, "open");
        self.inner.open(ino, flags)
    }

    fn release(&self, ino: u64, fh: u64) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "release");
        self.inner.release(ino, fh)
    }

    fn readdir(&self, ino: u64) -> KernelResult<Vec<DirEntry>> {
        let _f = enter(Layer::Bento, "readdir");
        self.inner.readdir(ino)
    }

    fn read_page(&self, ino: u64, page_index: u64, buf: &mut [u8]) -> KernelResult<usize> {
        let _f = enter(Layer::Bento, "read_page");
        self.inner.read_page(ino, page_index, buf)
    }

    fn write_page(
        &self,
        ino: u64,
        page_index: u64,
        data: &[u8],
        file_size: u64,
    ) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "write_page");
        self.inner.write_page(ino, page_index, data, file_size)
    }

    fn write_pages(
        &self,
        ino: u64,
        start_page: u64,
        pages: &[&[u8]],
        file_size: u64,
    ) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "write_pages");
        self.inner.write_pages(ino, start_page, pages, file_size)
    }

    fn supports_writepages(&self) -> bool {
        self.inner.supports_writepages()
    }

    fn fsync(&self, ino: u64, datasync: bool) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "fsync");
        self.inner.fsync(ino, datasync)
    }

    fn statfs(&self) -> KernelResult<StatFs> {
        let _f = enter(Layer::Bento, "statfs");
        self.inner.statfs()
    }

    fn sync_fs(&self) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "sync_fs");
        self.inner.sync_fs()
    }

    fn destroy(&self) -> KernelResult<()> {
        let _f = enter(Layer::Bento, "destroy");
        self.inner.destroy()
    }
}

/// The Bento `FileSystem` (xv6fs), timed at every operation.
pub struct TimedFs {
    inner: Box<dyn FileSystem>,
}

impl TimedFs {
    pub fn new(inner: Box<dyn FileSystem>) -> TimedFs {
        TimedFs { inner }
    }
}

impl FileSystem for TimedFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&self, req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "init");
        self.inner.init(req, sb)
    }

    fn destroy(&self, req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "destroy");
        self.inner.destroy(req, sb)
    }

    fn statfs(&self, req: &Request, sb: &SuperBlock) -> KernelResult<StatFs> {
        let _f = enter(Layer::Xv6, "statfs");
        self.inner.statfs(req, sb)
    }

    fn lookup(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
    ) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Xv6, "lookup");
        self.inner.lookup(req, sb, parent, name)
    }

    fn getattr(&self, req: &Request, sb: &SuperBlock, ino: u64) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Xv6, "getattr");
        self.inner.getattr(req, sb, ino)
    }

    fn setattr(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        set: &SetAttr,
    ) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Xv6, "setattr");
        self.inner.setattr(req, sb, ino, set)
    }

    fn create(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        mode: FileMode,
        flags: OpenFlags,
    ) -> KernelResult<CreateReply> {
        let _f = enter(Layer::Xv6, "create");
        self.inner.create(req, sb, parent, name, mode, flags)
    }

    fn mkdir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        mode: FileMode,
    ) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Xv6, "mkdir");
        self.inner.mkdir(req, sb, parent, name, mode)
    }

    fn unlink(&self, req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "unlink");
        self.inner.unlink(req, sb, parent, name)
    }

    fn rmdir(&self, req: &Request, sb: &SuperBlock, parent: u64, name: &str) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "rmdir");
        self.inner.rmdir(req, sb, parent, name)
    }

    fn rename(
        &self,
        req: &Request,
        sb: &SuperBlock,
        parent: u64,
        name: &str,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "rename");
        self.inner.rename(req, sb, parent, name, newparent, newname)
    }

    fn link(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        newparent: u64,
        newname: &str,
    ) -> KernelResult<InodeAttr> {
        let _f = enter(Layer::Xv6, "link");
        self.inner.link(req, sb, ino, newparent, newname)
    }

    fn open(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        flags: OpenFlags,
    ) -> KernelResult<u64> {
        let _f = enter(Layer::Xv6, "open");
        self.inner.open(req, sb, ino, flags)
    }

    fn read(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        offset: u64,
        size: u32,
    ) -> KernelResult<Vec<u8>> {
        let _f = enter(Layer::Xv6, "read");
        self.inner.read(req, sb, ino, fh, offset, size)
    }

    fn write(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        offset: u64,
        data: &[u8],
    ) -> KernelResult<usize> {
        let _f = enter(Layer::Xv6, "write");
        self.inner.write(req, sb, ino, fh, offset, data)
    }

    fn flush(&self, req: &Request, sb: &SuperBlock, ino: u64, fh: u64) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "flush");
        self.inner.flush(req, sb, ino, fh)
    }

    fn release(&self, req: &Request, sb: &SuperBlock, ino: u64, fh: u64) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "release");
        self.inner.release(req, sb, ino, fh)
    }

    fn fsync(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        datasync: bool,
    ) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "fsync");
        self.inner.fsync(req, sb, ino, fh, datasync)
    }

    fn opendir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        flags: OpenFlags,
    ) -> KernelResult<u64> {
        let _f = enter(Layer::Xv6, "opendir");
        self.inner.opendir(req, sb, ino, flags)
    }

    fn readdir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
    ) -> KernelResult<Vec<DirEntry>> {
        let _f = enter(Layer::Xv6, "readdir");
        self.inner.readdir(req, sb, ino, fh)
    }

    fn releasedir(&self, req: &Request, sb: &SuperBlock, ino: u64, fh: u64) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "releasedir");
        self.inner.releasedir(req, sb, ino, fh)
    }

    fn fsyncdir(
        &self,
        req: &Request,
        sb: &SuperBlock,
        ino: u64,
        fh: u64,
        datasync: bool,
    ) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "fsyncdir");
        self.inner.fsyncdir(req, sb, ino, fh, datasync)
    }

    fn sync_fs(&self, req: &Request, sb: &SuperBlock) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "sync_fs");
        self.inner.sync_fs(req, sb)
    }

    fn write_path_stats(&self) -> Option<WritePathStats> {
        self.inner.write_path_stats()
    }

    fn op_stats(&self) -> Option<FsOpStats> {
        self.inner.op_stats()
    }

    fn extract_state(&self, req: &Request, sb: &SuperBlock) -> KernelResult<StateBundle> {
        let _f = enter(Layer::Xv6, "extract_state");
        self.inner.extract_state(req, sb)
    }

    fn restore_state(
        &self,
        req: &Request,
        sb: &SuperBlock,
        state: StateBundle,
    ) -> KernelResult<()> {
        let _f = enter(Layer::Xv6, "restore_state");
        self.inner.restore_state(req, sb, state)
    }
}

/// The block device, timed at every I/O.
pub struct TimedDevice {
    inner: Arc<dyn BlockDevice>,
}

impl TimedDevice {
    pub fn new(inner: Arc<dyn BlockDevice>) -> TimedDevice {
        TimedDevice { inner }
    }
}

impl BlockDevice for TimedDevice {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, blockno: u64, buf: &mut [u8]) -> KernelResult<()> {
        let _f = enter(Layer::Dev, "read");
        self.inner.read_block(blockno, buf)
    }

    fn write_block(&self, blockno: u64, buf: &[u8]) -> KernelResult<()> {
        let _f = enter(Layer::Dev, "write");
        self.inner.write_block(blockno, buf)
    }

    fn flush(&self) -> KernelResult<()> {
        let _f = enter(Layer::Dev, "flush");
        self.inner.flush()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn as_queued(&self) -> Option<&dyn simkernel::queue::QueuedBlockDevice> {
        self.inner.as_queued()
    }
}
