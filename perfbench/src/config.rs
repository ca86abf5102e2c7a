//! Every parameter the benchmark depends on, pinned here.
//!
//! Nothing is taken from `CostModel::nvme_ssd()` or from a loadgen preset,
//! so a change to a preset cannot silently change what the benchmark
//! measures.  A change to any value below is a change to the benchmark.

use simkernel::cost::CostModel;

/// Closed-loop load threads (no think time).
pub const THREADS: usize = 2;

/// Inodes created by mkfs (the xv6 stacks' hard limit on live files).
pub const MKFS_INODES: u32 = 8192;

/// webserver-upgrade fsyncs its log with every this many appends, and
/// rotates it after every [`LOG_APPENDS_PER_ROTATION`] appends.  A fixed
/// cadence, not drawn ops: every fsync writes back the same number of
/// appends, and exactly one fsync in four carries the new log's creation,
/// so the seed does not decide which side of the fsync median those fall.
pub const LOG_APPENDS_PER_FSYNC: u64 = 5;
pub const LOG_APPENDS_PER_ROTATION: u64 = 20;

/// Fewest rounds a run makes, so `setup_s` is a median of at least three.
pub const MIN_ROUNDS: usize = 3;

/// The device cost model, nvme-shaped: 4 KiB read 60 µs, write 10 µs into
/// the write cache, FLUSH 40 µs + 0.5 µs per dirty block.
pub fn device_model() -> CostModel {
    CostModel {
        block_read_ns: 60_000,
        block_write_ns: 10_000,
        flush_base_ns: 40_000,
        flush_per_dirty_block_ns: 500,
        crossing_ns: 350,
        copy_per_byte_ns: 0,
        fuse_round_trip_ns: 15_000,
        whole_file_sync_base_ns: 12_000_000,
        whole_file_sync_per_block_ns: 15_000,
        inject_delays: true,
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Varmail,
    Fileserver,
    WebserverUpgrade,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "varmail" => Some(Workload::Varmail),
            "fileserver" => Some(Workload::Fileserver),
            "webserver-upgrade" => Some(Workload::WebserverUpgrade),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Varmail => "varmail",
            Workload::Fileserver => "fileserver",
            Workload::WebserverUpgrade => "webserver-upgrade",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::Varmail => Spec {
                device_blocks: 32_768,
                dirs: 4,
                subdirs: 0,
                files_per_thread: 250,
                size_min: 1024,
                size_max: 31 * 1024,
                append_min: 1024,
                append_max: 16 * 1024,
                ops_per_thread: 1000,
                cold_remount: false,
                upgrades: 0,
                idle_upgrades: 4,
                fsync_probes: 0,
            },
            Workload::Fileserver => Spec {
                device_blocks: 98_304,
                dirs: 16,
                subdirs: 0,
                files_per_thread: 320,
                size_min: 64 * 1024,
                size_max: 192 * 1024,
                append_min: 1024,
                append_max: 16 * 1024,
                ops_per_thread: 600,
                cold_remount: true,
                upgrades: 0,
                idle_upgrades: 4,
                fsync_probes: 16,
            },
            Workload::WebserverUpgrade => Spec {
                device_blocks: 32_768,
                dirs: 8,
                subdirs: 8,
                files_per_thread: 500,
                size_min: 1024,
                size_max: 16 * 1024,
                append_min: 512,
                append_max: 4096,
                ops_per_thread: 3000,
                cold_remount: false,
                upgrades: 8,
                idle_upgrades: 0,
                fsync_probes: 0,
            },
        }
    }

    /// Op-mix weights, taken from the Filebench personality of the same
    /// name (`workloads/varmail.f`, `fileserver.f`, `webserver.f`): one
    /// weight unit per flowop of the personality's per-thread loop.
    /// Departures are noted op by op.
    pub fn mix(self) -> &'static [(MixOp, u32)] {
        match self {
            // varmail.f's loop: deletefile; createfile + appendfilerand +
            // fsync; openfile + readwholefile + appendfilerand + fsync;
            // openfile + readwholefile.  Its read-append-fsync step is split
            // into a read and an append+fsync of independently chosen files,
            // so each is timed on its own.  Stat is not in varmail.f: it is
            // added so the mix has a metadata-only op.
            Workload::Varmail => &[
                (MixOp::Delete, 1),
                (MixOp::CreateWriteFsync, 1),
                (MixOp::AppendFsync, 1),
                (MixOp::ReadWhole, 2),
                (MixOp::Stat, 1),
            ],
            // fileserver.f's loop, one of each: createfile + writewholefile;
            // appendfilerand; readwholefile; deletefile; statfile.  Its
            // delete and create of unrelated files are paired into one
            // replace of a file by one of the same slot size, so the live
            // data set stays constant (the page cache does not reserve
            // blocks for the writes it accepts).  Rename is not in
            // fileserver.f: it is added so the mix moves files between
            // shared directories.
            Workload::Fileserver => &[
                (MixOp::Replace, 1),
                (MixOp::Append, 1),
                (MixOp::ReadWhole, 1),
                (MixOp::Stat, 1),
                (MixOp::Rename, 1),
            ],
            // webserver.f's loop: ten openfile + readwholefile + closefile of
            // the read-only fileset, then one appendfilerand to the log.  Not
            // in webserver.f: the log's fsync and rotation, on a fixed
            // cadence of appends (see `LOG_APPENDS_PER_FSYNC`); the rotation
            // gives the mix its creates and unlinks.
            Workload::WebserverUpgrade => &[(MixOp::ReadPopular, 10), (MixOp::LogAppend, 1)],
        }
    }
}

/// One op of a workload's mix.  Every op touches only files its own thread
/// writes, except `ReadPopular`, which reads the read-only shared set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// Unlink one of the thread's files.
    Delete,
    /// Create a new file, write it whole, fsync, close.
    CreateWriteFsync,
    /// Append to one of the thread's files, fsync, close.
    AppendFsync,
    /// Append to one of the thread's files, close (no fsync).
    Append,
    /// Open one of the thread's files, read it to EOF, close.
    ReadWhole,
    /// Stat one of the thread's files.
    Stat,
    /// Unlink one of the thread's files and create a new one of the same
    /// slot size in its place (keeps the live data set constant).
    Replace,
    /// Rename one of the thread's files to a new name in another directory.
    Rename,
    /// Read one file of the shared popular set, chosen uniformly.
    ReadPopular,
    /// Append to the thread's current log file; every
    /// [`LOG_APPENDS_PER_FSYNC`]-th append of a thread also fsyncs it, and
    /// every [`LOG_APPENDS_PER_ROTATION`]-th is followed by a rotation: a
    /// new log is started and the one before the current one unlinked.
    LogAppend,
}

/// Shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Device size in 4 KiB blocks.
    pub device_blocks: u64,
    /// Shared top-level directories.
    pub dirs: usize,
    /// Second-level directories under each top-level one (0 = flat).
    pub subdirs: usize,
    /// Files each thread creates at set-up (for webserver-upgrade: the
    /// shared popular set is `THREADS * files_per_thread` files).
    pub files_per_thread: usize,
    /// File sizes at set-up and on create, uniform in `[size_min, size_max]`.
    pub size_min: u64,
    pub size_max: u64,
    /// Append sizes, uniform in `[append_min, append_max]`.
    pub append_min: u64,
    pub append_max: u64,
    /// Fixed, seeded mix ops each thread issues per round.
    pub ops_per_thread: usize,
    /// Unmount and remount after set-up, so the window starts cold.
    pub cold_remount: bool,
    /// Live upgrades thread 0 issues, evenly spread through the first half
    /// of its ops.
    pub upgrades: usize,
    /// Upgrades issued on the idle mount after the closing sync (workloads
    /// whose mix has none, so `upgrade_pause_us` is defined everywhere).
    pub idle_upgrades: usize,
    /// Append+fsync pairs each thread issues after the closing sync
    /// (workloads whose mix has no fsync, so the fsync metrics are defined).
    pub fsync_probes: usize,
}
