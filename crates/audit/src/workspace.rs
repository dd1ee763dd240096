//! Workspace discovery and file classification.
//!
//! The walk is fully deterministic: directory entries are sorted
//! before recursion, paths are stored workspace-relative with forward
//! slashes, and generated directories (`target/`, `.git/`, `results/`)
//! and fixture corpora (`fixtures/`) are skipped. Only `.rs` files are
//! selected. Classification is by path shape:
//!
//! - `crates/<name>/…` → that crate; `shims/<name>/…` → a shim; the
//!   root `src/`, `tests/`, `examples/` → the facade package.
//! - a `tests/` or `benches/` segment → test/bench target; `bin/` or
//!   `main.rs` → binary; `examples/` → example; otherwise library.

use std::path::{Path, PathBuf};

use crate::findings::{CrateClass, FileKind};

/// Crate directory names with the deterministic-output contract.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "trace", "sim", "forecast", "classify", "features", "rum", "stats",
    "core", "audit", "obs", "fault", "oracle", "serve",
];

/// One file selected for auditing.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Crate directory name (`""` for the root facade).
    pub crate_name: String,
    /// Crate classification.
    pub class: CrateClass,
    /// Target kind.
    pub kind: FileKind,
}

/// Walks `root` and returns every auditable file, sorted by relative
/// path.
pub fn discover(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

fn walk(
    root: &Path,
    dir: &Path,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if path.is_dir() {
            // `fixtures/` holds deliberately-bad corpora for the
            // audit's own tests; they are scanned by those tests with
            // explicit classification, never by the workspace pass.
            if matches!(
                name.as_str(),
                "target" | ".git" | "results" | "fixtures"
            ) || name.starts_with('.')
            {
                continue;
            }
            walk(root, &path, out)?;
            continue;
        }
        if !name.ends_with(".rs") {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let (crate_name, class) = classify_crate(&rel);
        let kind = classify_kind(&rel);
        out.push(SourceFile {
            rel_path: rel,
            abs_path: path,
            crate_name,
            class,
            kind,
        });
    }
    Ok(())
}

fn classify_crate(rel: &str) -> (String, CrateClass) {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => {
            let class = if DETERMINISTIC_CRATES.contains(&name) {
                CrateClass::Deterministic
            } else {
                CrateClass::Runtime
            };
            (name.to_string(), class)
        }
        (Some("shims"), Some(name)) => {
            (name.to_string(), CrateClass::Shim)
        }
        _ => (String::new(), CrateClass::Facade),
    }
}

fn classify_kind(rel: &str) -> FileKind {
    let segments: Vec<&str> = rel.split('/').collect();
    let file = segments.last().copied().unwrap_or("");
    if segments.contains(&"tests") {
        FileKind::Test
    } else if segments.contains(&"benches") {
        FileKind::Bench
    } else if segments.contains(&"examples") {
        FileKind::Example
    } else if segments.contains(&"bin") || file == "main.rs" {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path_shape() {
        assert_eq!(
            classify_crate("crates/sim/src/engine.rs"),
            ("sim".to_string(), CrateClass::Deterministic)
        );
        assert_eq!(
            classify_crate("crates/knative/src/kpa.rs"),
            ("knative".to_string(), CrateClass::Runtime)
        );
        assert_eq!(
            classify_crate("shims/criterion/src/lib.rs"),
            ("criterion".to_string(), CrateClass::Shim)
        );
        assert_eq!(
            classify_crate("src/lib.rs"),
            (String::new(), CrateClass::Facade)
        );
        assert_eq!(classify_kind("crates/sim/src/engine.rs"), FileKind::Lib);
        assert_eq!(
            classify_kind("crates/audit/tests/fixtures/bad.rs"),
            FileKind::Test
        );
        assert_eq!(
            classify_kind("crates/bench/src/bin/fig02_iat.rs"),
            FileKind::Bin
        );
        assert_eq!(
            classify_kind("crates/audit/src/main.rs"),
            FileKind::Bin
        );
        assert_eq!(
            classify_kind("crates/bench/benches/features.rs"),
            FileKind::Bench
        );
    }
}
