//! Process probes read from `/proc/self`: CPU time, peak and current
//! resident memory, and the per-session resident-memory probe.

use std::process::Command;
use std::sync::Arc;

use atk_serve::{HostedSession, SessionConfig};
use atk_trace::Collector;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// CPU time and page faults of the whole process (every thread).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl Usage {
    /// Usage between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Reads [`Usage`] from `/proc/self/stat`.
pub fn usage() -> Result<Usage, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3, so
    // field n of the line is index n - 3 here.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(Usage {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / TICKS_PER_S,
        sys_s: field(15)? as f64 / TICKS_PER_S,
    })
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, …).
pub fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| {
            let value = line.strip_prefix(field)?.strip_prefix(':')?;
            value.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

/// Sessions the resident probe holds open at once.
pub const RESIDENT_SESSIONS: usize = 16;

/// Body of the `--resident-probe` child: the resident-memory cost of
/// one live forked `fig5` session, in kB. Builds the template first
/// (its memory is shared, not per session), then opens
/// [`RESIDENT_SESSIONS`] forks that each shipped their keyframe and
/// applied one typed step, and divides the `VmRSS` growth by their
/// number. Runs in a fresh process so the heap has no slack from
/// earlier work to hide the growth in.
pub fn resident_kb_in_process(seed: u64) -> Result<f64, String> {
    let collector = Arc::new(Collector::new());
    collector.enable();
    let mut templates = atk_apps::TemplateRegistry::new(collector.clone());
    // Focus click plus one key, the typing workload's first step.
    let steps = atk_serve::loadgen::client_script(atk_serve::Profile::Typing, "fig5", seed, 3)?;
    let open = |templates: &mut atk_apps::TemplateRegistry| -> Result<HostedSession, String> {
        let c = Arc::new(Collector::new());
        c.enable();
        let mut s = HostedSession::open_with("fig5", SessionConfig::default(), c, Some(templates))?;
        let key = s.initial_keyframe();
        std::hint::black_box(s.encode_frame(&key));
        let (frame, _) = s.apply_batch(&steps, 0);
        std::hint::black_box(s.encode_frame(&frame));
        Ok(s)
    };
    // Warm the template and the allocator with one session first.
    drop(open(&mut templates)?);
    let before = status_kb("VmRSS")?;
    let mut live = Vec::with_capacity(RESIDENT_SESSIONS);
    for _ in 0..RESIDENT_SESSIONS {
        live.push(open(&mut templates)?);
    }
    let after = status_kb("VmRSS")?;
    drop(live);
    Ok(after.saturating_sub(before) as f64 / RESIDENT_SESSIONS as f64)
}

/// Runs [`resident_kb_in_process`] in a child copy of this executable
/// and waits for it.
pub fn resident_kb(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--resident-probe", &seed.to_string()])
        .output()
        .map_err(|e| format!("resident probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "resident probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("resident probe output: {e}"))
}
