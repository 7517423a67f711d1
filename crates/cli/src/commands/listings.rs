//! `kernels`, `tasks` and `grids`: listings of the built-in inputs.

use super::*;

pub(super) fn kernels(_: &Args<'_>) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:16} {:>10} {:>12} {:>10}  heavy",
        "kernel", "GMACs", "act (MiB)", "wt (MiB)"
    );
    for k in KernelId::ALL {
        let d = k.descriptor();
        let _ = writeln!(
            out,
            "{:16} {:>10.1} {:>12.1} {:>10.1}  {}",
            k.short_name(),
            d.macs / 1e9,
            d.activation.to_mebibytes(),
            d.weights.to_mebibytes(),
            if k.is_activation_heavy() { "yes" } else { "no" }
        );
    }
    Ok(out)
}

pub(super) fn tasks(_: &Args<'_>) -> Result<String, CliError> {
    let mut out = String::new();
    for task in Task::evaluation_suite() {
        let kernels: Vec<&str> = task.kernels().map(KernelId::short_name).collect();
        let _ = writeln!(out, "{:14} {}", task.name(), kernels.join(", "));
    }
    Ok(out)
}

pub(super) fn grids(_: &Args<'_>) -> Result<String, CliError> {
    let mut out = String::new();
    for (name, ci) in GRIDS {
        let _ = writeln!(out, "{name:8} {ci}");
    }
    Ok(out)
}
