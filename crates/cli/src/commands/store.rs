//! `replay` and `cache`: the persistent result store seen from the CLI.

use super::*;
use cordoba_store::StoreKey;

/// The `replay` command: re-emits a stored run by hash, byte-identically,
/// without invoking the simulator.
pub(super) fn replay(args: &Args<'_>) -> Result<String, CliError> {
    let [hash] = args.positional() else {
        return Err(CliError::Usage(
            "replay expects exactly one <hash> argument".to_owned(),
        ));
    };
    let key = StoreKey::from_hex(hash)
        .ok_or_else(|| CliError::Usage(format!("`{hash}` is not a run hash (32 hex digits)")))?;
    let dir = args
        .get("store")
        .ok_or_else(|| CliError::Usage("replay requires --store <dir>".to_owned()))?;
    let store = open_store(dir)?;
    let lines = store.get(RUN_KIND, key).ok_or_else(|| {
        CliError::Usage(format!(
            "no stored run {hash} in {dir}; re-run with `dse --store`"
        ))
    })?;
    Ok(lines.join("\n"))
}

/// The `cache` command: `inspect` lists the store's entries, `evict`
/// deletes them (all, or one `--kind`).
pub(super) fn cache(args: &Args<'_>) -> Result<String, CliError> {
    let [action] = args.positional() else {
        return Err(CliError::Usage(
            "cache expects exactly one action: inspect or evict".to_owned(),
        ));
    };
    let dir = args
        .get("store")
        .ok_or_else(|| CliError::Usage("cache requires --store <dir>".to_owned()))?;
    let store = open_store(dir)?;
    let mut out = String::new();
    match *action {
        "inspect" => {
            if args.get("kind").is_some() {
                return Err(CliError::Usage(
                    "--kind only applies to `cache evict`".to_owned(),
                ));
            }
            let entries = store.entries();
            let mut total = 0u64;
            for entry in &entries {
                total += entry.bytes;
                let _ = writeln!(out, "{:16} {} {:>8} B", entry.kind, entry.key, entry.bytes);
            }
            let _ = writeln!(
                out,
                "total: {} entries, {} B in {dir}",
                entries.len(),
                total
            );
            if args.flag("metrics") {
                let snapshot = cordoba_obs::registry_snapshot();
                let _ = writeln!(
                    out,
                    "store ops this process: {} hits, {} misses, {} writes",
                    snapshot.counter("events/store_hit"),
                    snapshot.counter("events/store_miss"),
                    snapshot.counter("events/store_write")
                );
            }
        }
        "evict" => {
            let kind = args.get("kind");
            let removed = store.evict(kind);
            let kind = kind.map_or(String::new(), |kind| format!("`{kind}` "));
            let _ = writeln!(out, "evicted {removed} {kind}entries from {dir}");
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown cache action `{other}`; expected inspect or evict"
            )));
        }
    }
    Ok(out)
}
