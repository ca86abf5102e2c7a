//! The three workloads: their trees, their set-up, and their seeded op
//! streams.  Every thread draws its ops from its own seeded stream and its
//! own part of the model, so the ops a run issues, and the tree it leaves,
//! depend only on the seed.

use simkernel::error::KernelResult;
use simkernel::vfs::{OpenFlags, Vfs};

use crate::client::Client;
use crate::config::{
    MixOp, Spec, Workload, LOG_APPENDS_PER_FSYNC, LOG_APPENDS_PER_ROTATION, THREADS,
};
use crate::model::{FileModel, Rng, TreeModel};

/// The directories a workload's tree has, parents first.
pub fn directories(workload: Workload) -> Vec<String> {
    let spec = workload.spec();
    let top = match workload {
        Workload::Varmail => "mail",
        Workload::Fileserver => "srv",
        Workload::WebserverUpgrade => "www",
    };
    let mut dirs = Vec::new();
    for d in 0..spec.dirs {
        let dir = format!("/{top}{d:02}");
        dirs.push(dir.clone());
        for s in 0..spec.subdirs {
            dirs.push(format!("{dir}/s{s:02}"));
        }
    }
    if workload == Workload::WebserverUpgrade {
        dirs.push("/logs".to_string());
    }
    dirs
}

/// Directories files are placed in (the leaves of [`directories`]).
fn file_dirs(workload: Workload) -> Vec<String> {
    let spec = workload.spec();
    directories(workload)
        .into_iter()
        .filter(|d| d != "/logs" && (spec.subdirs == 0 || d.matches('/').count() == 2))
        .collect()
}

/// One load thread's part of the model and its generators.
pub struct ThreadState {
    workload: Workload,
    pub spec: Spec,
    thread: usize,
    dirs: Vec<String>,
    /// Files only this thread writes.
    pub files: Vec<FileModel>,
    /// webserver-upgrade: the current log, its `O_APPEND` descriptor, and
    /// the log before it.
    log: Option<FileModel>,
    log_fd: Option<u64>,
    old_log: Option<FileModel>,
    /// Log appends this thread has issued.
    log_appends: u64,
    next_seq: u64,
    /// Seeded rotation of the set-up size grid.
    size_offset: usize,
    /// Fsync after every write, so no `sync` writes back several files
    /// (the page cache writes files back in hash order, which varies from
    /// mount to mount); the wrapper-transparency check needs this.
    pub fsync_every_write: bool,
    rng: Rng,
}

impl ThreadState {
    pub fn new(workload: Workload, thread: usize, seed: u64) -> ThreadState {
        ThreadState {
            workload,
            spec: workload.spec(),
            thread,
            dirs: file_dirs(workload),
            files: Vec::new(),
            log: None,
            log_fd: None,
            log_appends: 0,
            old_log: None,
            next_seq: 0,
            size_offset: Rng::stream(seed, 99).below(THREADS * workload.spec().files_per_thread),
            fsync_every_write: false,
            rng: Rng::stream(seed, 100 + thread as u64),
        }
    }

    /// Switches to the op stream (set-up draws from its own stream, so the
    /// ops do not depend on how set-up consumed randomness).
    pub fn start_ops(&mut self, seed: u64) {
        self.rng = Rng::stream(seed, 200 + self.thread as u64);
    }

    fn new_file(&mut self, size: u64) -> FileModel {
        let seq = self.next_seq;
        self.next_seq += 1;
        let dir = &self.dirs[self.rng.below(self.dirs.len())];
        let id = ((self.thread as u64 + 1) << 32) | seq;
        FileModel::new(id, format!("{dir}/t{}.{seq}", self.thread), size)
    }

    /// Set-up sizes are an evenly spaced grid over `[size_min, size_max]`
    /// that the seed only rotates among the files, so every seed sets up
    /// the same amount of data.
    fn grid_size(&self, index: usize) -> u64 {
        let n = THREADS * self.spec.files_per_thread;
        let step = (self.spec.size_max - self.spec.size_min) / (n as u64 - 1);
        self.spec.size_min + step * ((index + self.size_offset) % n) as u64
    }

    fn random_size(&mut self) -> u64 {
        self.rng.range(self.spec.size_min, self.spec.size_max)
    }

    fn random_append(&mut self) -> u64 {
        self.rng.range(self.spec.append_min, self.spec.append_max)
    }

    fn new_log(&mut self) -> FileModel {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = ((self.thread as u64 + 1) << 32) | seq;
        FileModel::new(id, format!("/logs/t{}.{seq}", self.thread), 0)
    }

    /// Creates this thread's share of the set-up tree.  For
    /// webserver-upgrade that is every `THREADS`-th popular file (handed
    /// over to the shared read-only set afterwards) and the first log.
    pub fn populate(&mut self, client: &mut Client<'_>) {
        for i in 0..self.spec.files_per_thread {
            let index = i * THREADS + self.thread;
            let size = self.grid_size(index);
            let mut file = match self.workload {
                Workload::WebserverUpgrade => {
                    let dir = &self.dirs[index % self.dirs.len()];
                    FileModel::new((1 << 40) | index as u64, format!("{dir}/p{index:04}"), size)
                }
                _ => self.new_file(size),
            };
            client.create_write(&mut file, size, self.fsync_every_write, false);
            self.files.push(file);
        }
        if self.workload == Workload::WebserverUpgrade {
            self.open_new_log(client);
        }
    }

    /// Starts a new log: closes the current one (which becomes the
    /// previous log) and creates and opens the next.
    fn open_new_log(&mut self, client: &mut Client<'_>) {
        let log = self.new_log();
        let old_fd = self.log_fd.take();
        let mut fd = None;
        client.op("log_rotate", false, |c| {
            if let Some(old_fd) = old_fd {
                c.sys("close", |v| v.close(old_fd))?;
            }
            fd = Some(c.create_open(&log.path, OpenFlags::APPEND)?);
            Ok(())
        });
        self.log_fd = fd;
        self.old_log = self.log.replace(log);
    }

    /// Closes the open log descriptor (before unmount).
    pub fn close_log(&mut self, vfs: &Vfs) -> KernelResult<()> {
        match self.log_fd.take() {
            Some(fd) => vfs.close(fd),
            None => Ok(()),
        }
    }

    fn pick(&mut self) -> usize {
        self.rng.below(self.files.len())
    }

    fn draw(&mut self) -> MixOp {
        let mix = self.workload.mix();
        let total: u32 = mix.iter().map(|(_, w)| w).sum();
        let mut x = (self.rng.next_u64() % u64::from(total)) as u32;
        for &(op, weight) in mix {
            if x < weight {
                return op;
            }
            x -= weight;
        }
        unreachable!("weights cover the draw")
    }

    /// Issues this thread's fixed, seeded mix ops.  Thread 0 of
    /// webserver-upgrade also issues `spec.upgrades` upgrades, evenly spread
    /// between the first half of its ops; returns how many it issued.
    pub fn run_mix(&mut self, client: &mut Client<'_>, popular: &[FileModel]) -> usize {
        let n = self.spec.ops_per_thread;
        let upgrades = if self.thread == 0 { self.spec.upgrades } else { 0 };
        // Upgrades go in the first half of the ops, so the other thread is
        // still issuing ops when each one happens.
        let step = n / (2 * (upgrades + 1));
        let mut issued = 0;
        for i in 0..n {
            if upgrades > 0 && i > 0 && i % step == 0 && issued < upgrades {
                client.upgrade();
                issued += 1;
            }
            self.one_op(client, popular);
        }
        issued
    }

    fn one_op(&mut self, client: &mut Client<'_>, popular: &[FileModel]) {
        match self.draw() {
            MixOp::Delete if self.files.len() > 1 => {
                let i = self.pick();
                let file = self.files.swap_remove(i);
                client.unlink(&file.path, true);
            }
            MixOp::Delete | MixOp::CreateWriteFsync => {
                let size = self.random_size();
                let mut file = self.new_file(size);
                client.create_write(&mut file, size, true, true);
                self.files.push(file);
            }
            op @ (MixOp::AppendFsync | MixOp::Append) => {
                let len = self.random_append();
                let i = self.pick();
                let fsync = op == MixOp::AppendFsync || self.fsync_every_write;
                client.append(&mut self.files[i], len, fsync, true);
            }
            MixOp::ReadWhole => {
                let i = self.pick();
                client.read_whole(&self.files[i], true);
            }
            MixOp::Stat => {
                let i = self.pick();
                client.stat(&self.files[i]);
            }
            MixOp::Replace => {
                let i = self.pick();
                let slot = self.files[i].slot_size;
                client.unlink(&self.files[i].path, true);
                let mut file = self.new_file(slot);
                client.create_write(&mut file, slot, self.fsync_every_write, true);
                self.files[i] = file;
            }
            MixOp::Rename => {
                let i = self.pick();
                let moved = self.new_file(self.files[i].slot_size);
                client.rename(&self.files[i].path, &moved.path);
                self.files[i].path = moved.path;
            }
            MixOp::ReadPopular => {
                let i = self.rng.below(popular.len());
                client.read_whole(&popular[i], true);
            }
            MixOp::LogAppend => {
                let len = self.random_append();
                let log = self.log.as_mut().expect("webserver-upgrade keeps a log");
                let data = client.client_work("generate", || log.append(len));
                self.log_appends += 1;
                let fsync = self.log_appends.is_multiple_of(LOG_APPENDS_PER_FSYNC)
                    || self.fsync_every_write;
                if let Some(fd) = self.log_fd {
                    client.fd_append(fd, &data, fsync);
                }
                if self.log_appends.is_multiple_of(LOG_APPENDS_PER_ROTATION) {
                    // Keep the current and the previous log; unlink the
                    // older.  These follow-on ops are not mix ops, so the
                    // mix op count stays fixed.
                    let older = self.old_log.take();
                    self.open_new_log(client);
                    if let Some(older) = older {
                        client.unlink(&older.path, false);
                    }
                }
            }
        }
    }

    /// Post-window fsync probe: append+fsync pairs on one of this thread's
    /// files (one file, so after the first pair its metadata is cached and
    /// the figure does not hinge on what the window left in the caches).
    pub fn fsync_probe(&mut self, client: &mut Client<'_>) {
        for _ in 0..self.spec.fsync_probes {
            client.append(&mut self.files[0], 4096, true, false);
        }
    }

    /// Adds this thread's files to `tree`.
    pub fn add_to(&self, tree: &mut TreeModel) {
        for file in self.files.iter().chain(&self.log).chain(&self.old_log) {
            tree.files.insert(file.path.clone(), file.clone());
        }
    }
}
