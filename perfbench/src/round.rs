//! One round: set up a fresh device, run the fixed op mix on two closed-loop
//! threads, close with `sync`, then check everything.
//!
//! Rounds repeat the same seeded inputs; a run makes as many rounds as fit
//! its time budget (at least [`MIN_ROUNDS`](crate::config::MIN_ROUNDS)).

use std::sync::Arc;
use std::time::Instant;

use bento::bentofs::{BentoFs, BentoFsType};
use simkernel::dev::{BlockDevice, DeviceStats, RamDisk, SsdDevice};
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::pagecache::PageCacheStats;
use simkernel::vfs::{FileType, MountOptions, OpenFlags, Vfs, VfsConfig, WritePathStats};

use crate::client::{Client, ClientStats};
use crate::config::{self, Workload, THREADS};
use crate::layers::{self, Span, TimedDevice, TimedFs, TimedVfsFs};
use crate::model::TreeModel;
use crate::workloads::{self, ThreadState};

/// The stack a run mounts.  The benchmark's workloads run on Bento; the
/// other two give reference figures on the same workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Bento,
    CKernel,
    Ext4,
}

impl Stack {
    pub fn parse(name: &str) -> Option<Stack> {
        match name {
            "bento" => Some(Stack::Bento),
            "ckernel" => Some(Stack::CKernel),
            "ext4" => Some(Stack::Ext4),
            _ => None,
        }
    }

    fn is_xv6(self) -> bool {
        self != Stack::Ext4
    }

    /// Whether rounds may reuse one device.  ext4sim's format leaves the
    /// other checkpoint slot of a used device valid, and a later mount
    /// loads that older image, so ext4 rounds each get a fresh device.
    pub fn reuses_device(self) -> bool {
        self.is_xv6()
    }
}

/// A deliberate fault the negative controls plant before the checks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    None,
    /// Flip one byte of a file's first data block on the unmounted image.
    FlipByte,
    /// Drop one file from the model.
    DropFile,
}

/// How one round is run.
#[derive(Debug, Clone, Copy)]
pub struct RoundConfig {
    pub workload: Workload,
    pub seed: u64,
    pub stack: Stack,
    /// Mount the timing wrappers and record spans.
    pub traced: bool,
    /// Run every thread's part on the calling thread, one after another,
    /// on a zero-cost device, fsyncing every write: the deterministic run
    /// the wrapper-transparency check compares.
    pub single_thread: bool,
    pub sabotage: Sabotage,
}

/// Counters read from the program before and after the measured part.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub page_cache: PageCacheStats,
    pub write_path: WritePathStats,
}

impl Counters {
    fn take(vfs: &Vfs) -> Counters {
        Counters {
            page_cache: vfs.page_cache_stats("/").unwrap_or_default(),
            write_path: vfs
                .mounted_fs("/")
                .ok()
                .and_then(|fs| fs.write_path_stats())
                .unwrap_or_default(),
        }
    }
}

/// What one round measured and found.
#[derive(Debug, Default)]
pub struct RoundResult {
    pub setup_s: f64,
    /// From the first mix op to the end of the closing `sync`.
    pub window_s: f64,
    pub window_start_ns: u64,
    pub window_end_ns: u64,
    pub stats: ClientStats,
    /// Spans recorded in the traced run (window and probes).
    pub spans: Vec<Span>,
    pub before: Counters,
    pub after: Counters,
    /// Check failures; empty when the round is correct.
    pub problems: Vec<String>,
    /// Device I/O counts over the whole round and a listing of the
    /// verified tree (the wrapper-transparency check compares these).
    pub device_total: DeviceStats,
    pub tree_listing: Vec<String>,
}

/// A zero-filled RAM disk sized for `workload`, with every block written
/// once, so all of its memory is resident from the start and the device's
/// share of the resident set does not depend on how many blocks a run
/// happens to touch.
pub fn ram_disk(workload: Workload) -> Arc<dyn BlockDevice> {
    let ram: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096, workload.spec().device_blocks));
    let zeros = vec![0u8; 4096];
    for blockno in 0..ram.num_blocks() {
        ram.write_block(blockno, &zeros).expect("RAM disk write within its size");
    }
    ram
}

fn costed(ram: &Arc<dyn BlockDevice>, single_thread: bool) -> Arc<dyn BlockDevice> {
    let model =
        if single_thread { simkernel::cost::CostModel::zero() } else { config::device_model() };
    Arc::new(SsdDevice::new(Arc::clone(ram), model))
}

fn format(stack: Stack, device: &Arc<dyn BlockDevice>) -> KernelResult<()> {
    // ext4sim formats a device it cannot mount; its runs use a fresh one.
    if stack.is_xv6() {
        xv6fs::mkfs::mkfs_on_device(device, config::MKFS_INODES)?;
    }
    Ok(())
}

/// Mounts `stack` at `/` of a fresh VFS.  Untraced mounts take the
/// ordinary path (a registered file system type); the traced mount wraps
/// the device, the Bento file system and the mounted `VfsFs`.
pub fn mount(stack: Stack, device: Arc<dyn BlockDevice>, traced: bool) -> KernelResult<Arc<Vfs>> {
    let vfs = Arc::new(Vfs::new(VfsConfig::default()));
    let options = MountOptions::default();
    match (stack, traced) {
        (Stack::Bento, false) => {
            vfs.register_filesystem(Arc::new(xv6fs::fstype()))?;
            vfs.mount(xv6fs::BENTO_XV6_NAME, device, "/", &options)?;
        }
        (Stack::Bento, true) => {
            let fstype = BentoFsType::with_options(xv6fs::BENTO_XV6_NAME, |_| {
                Box::new(TimedFs::new(Box::new(xv6fs::Xv6FileSystem::new())))
            });
            let device: Arc<dyn BlockDevice> = Arc::new(TimedDevice::new(device));
            let bento = fstype.mount_on_with(device, &options)?;
            vfs.mount_fs(Arc::new(TimedVfsFs::new(bento)), "/")?;
        }
        (Stack::CKernel, _) => {
            vfs.register_filesystem(Arc::new(xv6fs_vfs::Xv6VfsFilesystemType))?;
            vfs.mount(xv6fs_vfs::VFS_XV6_NAME, device, "/", &options)?;
        }
        (Stack::Ext4, _) => {
            vfs.register_filesystem(Arc::new(ext4sim::Ext4FilesystemType))?;
            vfs.mount(ext4sim::EXT4_NAME, device, "/", &options)?;
        }
    }
    Ok(vfs)
}

fn bento_generation(vfs: &Vfs) -> Option<u64> {
    let fs = vfs.mounted_fs("/").ok()?;
    fs.as_any().and_then(|any| any.downcast_ref::<BentoFs>()).map(BentoFs::generation)
}

/// Runs `work` for every thread state: on two threads, or one after another
/// on the calling thread.  Returns each thread's client stats and spans.
fn for_each_thread<F>(
    states: &mut [ThreadState],
    single_thread: bool,
    work: F,
) -> Vec<(ClientStats, Vec<Span>)>
where
    F: Fn(&mut ThreadState) -> ClientStats + Sync,
{
    if single_thread {
        return states.iter_mut().map(|s| (work(s), layers::take_thread_spans())).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|s| {
                let work = &work;
                scope.spawn(move || (work(s), layers::take_thread_spans()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    })
}

/// Runs one round on `ram`, a RAM disk of the workload's size that the
/// round formats first (a run reuses one across its rounds, so every round
/// sees the same memory already mapped).
///
/// # Errors
///
/// Returns set-up failures (mkfs, mount, populate); every later failure is
/// recorded in [`RoundResult::problems`] or counted as a failed op.
pub fn run_round(cfg: &RoundConfig, ram: &Arc<dyn BlockDevice>) -> KernelResult<RoundResult> {
    let spec = cfg.workload.spec();
    let mut result = RoundResult::default();
    let ram_before = ram.stats();

    // -- set-up: mkfs, mount, populate, sync, cold remount ------------------
    let setup_started = Instant::now();
    let mut device = costed(ram, cfg.single_thread);
    format(cfg.stack, &device)?;
    let mut vfs = mount(cfg.stack, Arc::clone(&device), cfg.traced)?;
    for dir in workloads::directories(cfg.workload) {
        vfs.mkdir(&dir)?;
    }
    let mut states: Vec<ThreadState> =
        (0..THREADS).map(|t| ThreadState::new(cfg.workload, t, cfg.seed)).collect();
    for state in &mut states {
        state.fsync_every_write = cfg.single_thread;
    }
    if cfg.stack != Stack::Bento {
        // Live upgrade is a Bento feature; reference stacks skip it.
        for state in &mut states {
            state.spec.upgrades = 0;
            state.spec.idle_upgrades = 0;
        }
    }
    let populated = {
        let vfs = &vfs;
        for_each_thread(&mut states, cfg.single_thread, |state| {
            let mut client = Client::new(vfs, false);
            state.populate(&mut client);
            client.stats
        })
    };
    for (stats, _) in &populated {
        if stats.failed > 0 {
            return Err(KernelError::with_context(Errno::Io, "set-up op failed"));
        }
    }
    vfs.sync()?;
    if spec.cold_remount {
        vfs.unmount("/")?;
        device = costed(ram, cfg.single_thread);
        vfs = mount(cfg.stack, Arc::clone(&device), cfg.traced)?;
    }
    result.setup_s = setup_started.elapsed().as_secs_f64();

    // The popular set is read-only and shared once set-up is done.
    let mut popular = Vec::new();
    if cfg.workload == Workload::WebserverUpgrade {
        for state in &mut states {
            popular.append(&mut state.files);
        }
        popular.sort_by_key(|f| f.id);
    }

    // -- the measured window: fixed mix ops, then the closing sync ----------
    let generation_before = bento_generation(&vfs);
    result.before = Counters::take(&vfs);
    let trace_guard = cfg.traced.then(|| {
        layers::set_recording(true);
        simkernel::trace::reset();
        simkernel::trace::enable()
    });
    result.window_start_ns = layers::now_ns();
    let window_started = Instant::now();
    let issued_upgrades = std::sync::atomic::AtomicU64::new(0);
    let ran = {
        let (vfs, popular, issued) = (&vfs, &popular, &issued_upgrades);
        for_each_thread(&mut states, cfg.single_thread, |state| {
            let mut client = Client::new(vfs, cfg.traced);
            state.start_ops(cfg.seed);
            let n = state.run_mix(&mut client, popular);
            issued.fetch_add(n as u64, std::sync::atomic::Ordering::Relaxed);
            client.stats
        })
    };
    let mut probe = Client::new(&vfs, cfg.traced);
    probe.op("sync", false, |c| c.sys("sync", |v| v.sync()));
    result.window_s = window_started.elapsed().as_secs_f64();
    result.window_end_ns = layers::now_ns();
    for (stats, spans) in ran {
        result.stats.merge(stats);
        result.spans.extend(spans);
    }
    let mut issued = issued_upgrades.into_inner();

    // -- probes for op classes the mix lacks (outside the window) -----------
    for _ in 0..states[0].spec.idle_upgrades {
        issued += 1;
        probe.upgrade();
    }
    for state in &mut states {
        state.fsync_probe(&mut probe);
    }
    result.stats.merge(probe.stats);
    result.after = Counters::take(&vfs);
    drop(trace_guard);
    layers::set_recording(false);
    result.spans.extend(layers::take_thread_spans());

    if let (Some(before), Some(after)) = (generation_before, bento_generation(&vfs)) {
        if after - before != issued {
            result.problems.push(format!(
                "upgrade generation advanced by {} for {issued} upgrades",
                after - before
            ));
        }
    }

    // -- checks: unmount, fsck, remount, walk the whole tree ----------------
    let mut tree = TreeModel { dirs: workloads::directories(cfg.workload), ..TreeModel::default() };
    for state in &mut states {
        state.close_log(&vfs)?;
        state.add_to(&mut tree);
    }
    for file in popular {
        tree.files.insert(file.path.clone(), file);
    }
    if let Err(e) = vfs.unmount("/") {
        result.problems.push(format!("unmount failed: {e}"));
        return Ok(result);
    }
    drop(vfs);
    let ram_after = ram.stats();
    result.device_total = DeviceStats {
        reads: ram_after.reads - ram_before.reads,
        writes: ram_after.writes - ram_before.writes,
        flushes: ram_after.flushes - ram_before.flushes,
    };
    match cfg.sabotage {
        Sabotage::None => {}
        Sabotage::FlipByte => flip_first_block_byte(ram, &tree)?,
        Sabotage::DropFile => {
            let victim = tree.files.keys().next().cloned().expect("tree has files");
            tree.files.remove(&victim);
        }
    }
    if cfg.stack.is_xv6() {
        let report = xv6fs::fsck::fsck_device(ram)?;
        if !report.is_clean() {
            result.problems.push(format!("fsck: {:?}", report.errors));
        }
    }
    let check = mount(cfg.stack, Arc::clone(ram), false)?;
    let (listing, problems) = verify_tree(&check, &tree)?;
    result.problems.extend(problems);
    result.tree_listing = listing;
    check.unmount("/")?;
    result.problems.extend(result.stats.mismatches.iter().cloned());
    Ok(result)
}

/// Walks the mounted tree and compares names, kinds, sizes and every byte
/// with `tree`.  Returns a listing of what was found and the differences.
fn verify_tree(vfs: &Vfs, tree: &TreeModel) -> KernelResult<(Vec<String>, Vec<String>)> {
    let mut listing = Vec::new();
    let mut problems = Vec::new();
    let mut seen_files = 0usize;
    let mut seen_dirs = Vec::new();
    let mut pending = vec!["/".to_string()];
    while let Some(dir) = pending.pop() {
        for entry in vfs.readdir(&dir)? {
            if entry.name == "." || entry.name == ".." {
                continue;
            }
            let path = if dir == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{dir}/{}", entry.name)
            };
            match entry.kind {
                FileType::Directory => {
                    listing.push(format!("d {path} {}", entry.ino));
                    seen_dirs.push(path.clone());
                    pending.push(path);
                }
                FileType::Regular => {
                    let data = read_file(vfs, &path)?;
                    listing.push(format!("f {path} {} {}", entry.ino, data.len()));
                    match tree.files.get(&path) {
                        None => problems.push(format!("unexpected file {path}")),
                        Some(model) => {
                            seen_files += 1;
                            if vfs.stat(&path)?.size != model.size() {
                                problems.push(format!("size of {path} differs from the model"));
                            }
                            if let Some(at) = model.first_mismatch(&data) {
                                problems.push(format!("{path} differs from the model at {at}"));
                            }
                        }
                    }
                }
                other => problems.push(format!("unexpected {other:?} at {path}")),
            }
        }
    }
    if seen_files != tree.files.len() {
        problems.push(format!(
            "{} model files missing from the tree",
            tree.files.len().saturating_sub(seen_files)
        ));
    }
    seen_dirs.sort();
    let mut expected_dirs = tree.dirs.clone();
    expected_dirs.sort();
    if seen_dirs != expected_dirs {
        problems.push("directory set differs from the model".to_string());
    }
    listing.sort();
    Ok((listing, problems))
}

fn read_file(vfs: &Vfs, path: &str) -> KernelResult<Vec<u8>> {
    let fd = vfs.open(path, OpenFlags::RDONLY)?;
    let mut data = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let result = loop {
        match vfs.read(fd, &mut chunk) {
            Ok(0) => break Ok(()),
            Ok(n) => data.extend_from_slice(&chunk[..n]),
            Err(e) => break Err(e),
        }
    };
    vfs.close(fd)?;
    result.map(|()| data)
}

/// Finds the first model file's first data block on the raw image (its
/// first bytes are unique to the file; `ram` must be fresh, with no copy
/// left by an earlier round) and flips one byte of it.
fn flip_first_block_byte(ram: &Arc<dyn BlockDevice>, tree: &TreeModel) -> KernelResult<()> {
    let file = tree.files.values().find(|f| f.size() >= 64).expect("tree has a file");
    let head = file.head(64);
    let mut block = vec![0u8; 4096];
    for blockno in 0..ram.num_blocks() {
        ram.read_block(blockno, &mut block)?;
        if block.starts_with(&head) {
            block[10] ^= 0x5a;
            return ram.write_block(blockno, &block);
        }
    }
    Err(KernelError::with_context(Errno::NoEnt, "file's first block not found on the image"))
}
