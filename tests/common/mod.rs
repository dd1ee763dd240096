//! Helpers for the tests that read the workspace's own files.

use std::path::{Path, PathBuf};

pub fn workspace_root() -> &'static Path {
    // The root package's manifest dir IS the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .expect("workspace file is readable")
}

/// Every `.rs` file under `dir` in path order, skipping build output,
/// results and hidden directories.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .expect("workspace directory is readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    let mut files = Vec::new();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | "results") && !name.starts_with('.')
            {
                files.extend(rust_files(&path));
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    files
}
