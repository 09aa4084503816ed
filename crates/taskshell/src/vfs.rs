//! A tiny virtual filesystem for task scripts.
//!
//! Each HPCAdvisor job gets its own directory on the cluster's shared NFS;
//! the setup task downloads inputs into the app's parent directory and run
//! scripts copy them into the per-task directory (`cp ../in.lj.txt .` in the
//! paper's Listing 2). This VFS reproduces those semantics: absolute paths,
//! `.`/`..` resolution against a current directory, and implicit parent
//! directories.
//!
//! A task's writes can be made provisional: [`Vfs::checkpoint`] starts an
//! undo log, after which [`Vfs::rollback`] restores the filesystem exactly
//! and [`Vfs::commit`] keeps the writes. That lets one filesystem serve a
//! sequence of tasks without copying it per task.

use crate::error::ShellError;
use std::collections::{BTreeMap, BTreeSet};

/// In-memory filesystem: path → content.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    files: BTreeMap<String, String>,
    dirs: BTreeSet<String>,
    /// Changes since the last [`Vfs::checkpoint`], oldest first; `None`
    /// when nothing is being recorded.
    undo: Option<Vec<Undo>>,
}

/// One recorded change, holding what is needed to revert it.
#[derive(Debug, Clone)]
enum Undo {
    /// A file was written or removed; its previous content, if it existed.
    File(String, Option<String>),
    /// A directory was created.
    Dir(String),
}

/// Two filesystems are equal when they hold the same files and
/// directories; a pending undo log is not content.
impl PartialEq for Vfs {
    fn eq(&self, other: &Vfs) -> bool {
        self.files == other.files && self.dirs == other.dirs
    }
}

/// Normalizes `path` relative to `cwd`, resolving `.` and `..`.
pub fn resolve(cwd: &str, path: &str) -> String {
    let joined = if path.starts_with('/') {
        path.to_string()
    } else {
        format!("{}/{}", cwd.trim_end_matches('/'), path)
    };
    let mut parts: Vec<&str> = Vec::new();
    for part in joined.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    format!("/{}", parts.join("/"))
}

impl Vfs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Vfs::default()
    }

    /// Writes (creates or replaces) a file at an absolute path.
    pub fn write(&mut self, path: &str, content: impl Into<String>) {
        let path = resolve("/", path);
        // Implicit parent directories.
        let mut acc = String::new();
        for part in path.trim_start_matches('/').split('/') {
            acc.push('/');
            acc.push_str(part);
        }
        if let Some(idx) = acc.rfind('/') {
            let mut dir = String::new();
            for part in acc[..idx].trim_start_matches('/').split('/') {
                if part.is_empty() {
                    continue;
                }
                dir.push('/');
                dir.push_str(part);
                self.add_dir(&dir);
            }
        }
        self.put_file(path, content.into());
    }

    fn put_file(&mut self, path: String, content: String) {
        match &mut self.undo {
            Some(log) => {
                let previous = self.files.insert(path.clone(), content);
                log.push(Undo::File(path, previous));
            }
            None => {
                self.files.insert(path, content);
            }
        }
    }

    fn add_dir(&mut self, dir: &str) {
        if !self.dirs.contains(dir) {
            self.dirs.insert(dir.to_string());
            if let Some(log) = &mut self.undo {
                log.push(Undo::Dir(dir.to_string()));
            }
        }
    }

    /// Reads a file at an absolute path.
    pub fn read(&self, path: &str) -> Result<&str, ShellError> {
        let path = resolve("/", path);
        self.files
            .get(&path)
            .map(|s| s.as_str())
            .ok_or(ShellError::NoSuchFile(path))
    }

    /// True if a file exists at the absolute path.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(&resolve("/", path))
    }

    /// Removes a file.
    pub fn remove(&mut self, path: &str) -> Result<(), ShellError> {
        let path = resolve("/", path);
        match self.files.remove(&path) {
            Some(previous) => {
                if let Some(log) = &mut self.undo {
                    log.push(Undo::File(path, Some(previous)));
                }
                Ok(())
            }
            None => Err(ShellError::NoSuchFile(path)),
        }
    }

    /// Registers a directory (mkdir -p semantics).
    pub fn mkdir(&mut self, path: &str) {
        let path = resolve("/", path);
        let mut dir = String::new();
        for part in path.trim_start_matches('/').split('/') {
            if part.is_empty() {
                continue;
            }
            dir.push('/');
            dir.push_str(part);
            self.add_dir(&dir);
        }
    }

    /// True if a directory was created (explicitly or implicitly).
    pub fn dir_exists(&self, path: &str) -> bool {
        let path = resolve("/", path);
        path == "/" || self.dirs.contains(&path)
    }

    /// Merges another filesystem into this one: files and directories from
    /// `other` are added, with `other`'s content winning on path conflicts.
    ///
    /// Parallel scenario shards each work on a clone of the shared
    /// filesystem; merging the shard filesystems back reproduces what a
    /// shared NFS mount would hold after all shards finish (shards write
    /// disjoint per-task directories, so "last writer wins" only applies to
    /// identical setup artifacts). `other` is consumed, so its contents
    /// move rather than copy.
    pub fn merge_from(&mut self, other: Vfs) {
        for (path, content) in other.files {
            self.put_file(path, content);
        }
        for dir in &other.dirs {
            self.add_dir(dir);
        }
    }

    /// Starts recording an undo log: every change from here on can be
    /// reverted by [`Vfs::rollback`]. A log already being recorded is
    /// dropped, as by [`Vfs::commit`].
    pub fn checkpoint(&mut self) {
        self.undo = Some(Vec::new());
    }

    /// Keeps every change since [`Vfs::checkpoint`] and stops recording.
    pub fn commit(&mut self) {
        self.undo = None;
    }

    /// Reverts every change since [`Vfs::checkpoint`], newest first, and
    /// stops recording. Without a checkpoint this does nothing.
    pub fn rollback(&mut self) {
        for change in self.undo.take().into_iter().flatten().rev() {
            match change {
                Undo::File(path, Some(previous)) => {
                    self.files.insert(path, previous);
                }
                Undo::File(path, None) => {
                    self.files.remove(&path);
                }
                Undo::Dir(dir) => {
                    self.dirs.remove(&dir);
                }
            }
        }
    }

    /// Lists file paths under a directory prefix.
    pub fn list(&self, dir: &str) -> Vec<&str> {
        let prefix = format!("{}/", resolve("/", dir).trim_end_matches('/'));
        self.files
            .keys()
            .filter(|p| p.starts_with(&prefix))
            .map(|p| p.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_relative_paths() {
        assert_eq!(resolve("/a/b", "c.txt"), "/a/b/c.txt");
        assert_eq!(resolve("/a/b", "../c.txt"), "/a/c.txt");
        assert_eq!(resolve("/a/b", "./c.txt"), "/a/b/c.txt");
        assert_eq!(resolve("/a/b", "/abs.txt"), "/abs.txt");
        assert_eq!(resolve("/", "../../up.txt"), "/up.txt");
        assert_eq!(resolve("/a", "."), "/a");
    }

    #[test]
    fn write_read_cycle() {
        let mut fs = Vfs::new();
        fs.write("/share/app/in.lj.txt", "variable x index 1\n");
        assert_eq!(
            fs.read("/share/app/in.lj.txt").unwrap(),
            "variable x index 1\n"
        );
        assert!(fs.exists("/share/app/in.lj.txt"));
        assert!(!fs.exists("/share/app/other.txt"));
        assert!(fs.read("/nope").is_err());
    }

    #[test]
    fn merge_unions_files_and_dirs() {
        let mut a = Vfs::new();
        a.write("/share/app/in.txt", "original");
        a.mkdir("/share/app/task-1");
        let mut b = Vfs::new();
        b.write("/share/app/in.txt", "updated");
        b.write("/share/app/task-2/out.log", "done");
        a.merge_from(b);
        assert_eq!(a.read("/share/app/in.txt").unwrap(), "updated");
        assert!(a.exists("/share/app/task-2/out.log"));
        assert!(a.dir_exists("/share/app/task-1"), "own dirs kept");
        assert!(a.dir_exists("/share/app/task-2"), "merged dirs present");
    }

    #[test]
    fn implicit_parent_dirs() {
        let mut fs = Vfs::new();
        fs.write("/a/b/c.txt", "x");
        assert!(fs.dir_exists("/a"));
        assert!(fs.dir_exists("/a/b"));
        assert!(!fs.dir_exists("/a/b/c.txt"));
    }

    #[test]
    fn listing_and_removal() {
        let mut fs = Vfs::new();
        fs.write("/d/one", "1");
        fs.write("/d/two", "2");
        fs.write("/e/three", "3");
        assert_eq!(fs.list("/d"), vec!["/d/one", "/d/two"]);
        fs.remove("/d/one").unwrap();
        assert_eq!(fs.list("/d"), vec!["/d/two"]);
        assert!(fs.remove("/d/one").is_err());
    }

    /// A filesystem with one file and its directories, checkpointed.
    fn checkpointed() -> (Vfs, Vfs) {
        let mut fs = Vfs::new();
        fs.write("/share/app/in.txt", "v0");
        let before = fs.clone();
        fs.checkpoint();
        (fs, before)
    }

    #[test]
    fn rollback_restores_a_file_overwritten_twice() {
        let (mut fs, before) = checkpointed();
        fs.write("/share/app/in.txt", "v1");
        fs.write("/share/app/in.txt", "v2");
        fs.write("/share/app/new.txt", "n1");
        fs.write("/share/app/new.txt", "n2");
        fs.rollback();
        assert_eq!(fs, before);
        assert_eq!(fs.read("/share/app/in.txt").unwrap(), "v0");
        assert!(!fs.exists("/share/app/new.txt"));
    }

    #[test]
    fn rollback_restores_a_removed_file() {
        let (mut fs, before) = checkpointed();
        fs.remove("/share/app/in.txt").unwrap();
        fs.write("/share/app/in.txt", "rewritten");
        fs.remove("/share/app/in.txt").unwrap();
        assert!(!fs.exists("/share/app/in.txt"));
        fs.rollback();
        assert_eq!(fs, before);
        assert_eq!(fs.read("/share/app/in.txt").unwrap(), "v0");
    }

    #[test]
    fn rollback_removes_implicit_and_explicit_directories() {
        let (mut fs, before) = checkpointed();
        fs.write("/share/app/task-1/deep/out.log", "x");
        fs.mkdir("/share/other/sub");
        assert!(fs.dir_exists("/share/app/task-1/deep"));
        fs.rollback();
        assert_eq!(fs, before);
        for dir in [
            "/share/app/task-1",
            "/share/app/task-1/deep",
            "/share/other",
        ] {
            assert!(!fs.dir_exists(dir), "{dir}");
        }
        assert!(fs.dir_exists("/share/app"), "directories from before stay");
    }

    #[test]
    fn commit_keeps_the_writes_and_drops_the_log() {
        let (mut fs, before) = checkpointed();
        fs.write("/share/app/in.txt", "v1");
        fs.mkdir("/share/app/task-1");
        fs.commit();
        let committed = fs.clone();
        assert_ne!(committed, before);
        fs.rollback();
        assert_eq!(fs, committed, "nothing is left to roll back");
        // Changes after a commit are not recorded either.
        fs.write("/share/app/later.txt", "kept");
        fs.rollback();
        assert!(fs.exists("/share/app/later.txt"));
    }

    #[test]
    fn mkdir_p() {
        let mut fs = Vfs::new();
        fs.mkdir("/x/y/z");
        assert!(fs.dir_exists("/x"));
        assert!(fs.dir_exists("/x/y/z"));
        assert!(fs.dir_exists("/"));
    }
}
