//! The declarative rule set.
//!
//! Each rule is a function from (path, [`FileModel`], [`Config`]) to
//! findings; crate-level aggregation (the unsafe audit's per-crate
//! attributes) lives in [`unsafety`]. The engine applies `lint:allow`
//! suppression afterwards, so rules themselves stay oblivious to it.

pub mod forbidden;
pub mod ordering;
pub mod padding;
pub mod persist;
pub mod unsafety;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::model::FileModel;

/// Runs every per-file rule over one file.
pub fn run_file_rules(path: &str, model: &FileModel<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    ordering::run(path, model, cfg, &mut out);
    padding::run(path, model, cfg, &mut out);
    persist::run(path, model, cfg, &mut out);
    unsafety::run_file(path, model, cfg, &mut out);
    forbidden::run(path, model, cfg, &mut out);
    out
}
