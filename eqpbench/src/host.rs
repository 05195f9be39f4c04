//! Host facts recorded with every run: numbers from different hosts,
//! worker counts or journal filesystems are not comparable.

use std::path::Path;

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Filesystem type of the mount holding `dir` (`tmpfs`, `ext4`, ...),
/// from the kernel's mount table; `unknown` where there is none.
pub fn filesystem(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(table) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in table.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, t)| t)
}

/// The checked-out commit when `root` is a git work tree, read from
/// `.git` directly; `none` otherwise (an exported source tree).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a digest over every file under `root/crates` (path and bytes,
/// in sorted path order): identifies the measured source when the tree
/// is not a git checkout.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}
