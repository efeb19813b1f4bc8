//! CPU time and memory of the benchmark process, its threads and its
//! member children, read from `/proc`. Parsing is split from file access
//! so the arithmetic is unit-tested on fixed text.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`). Linux
/// fixes it at 100 on every architecture this workspace builds for; std
/// has no `sysconf`, and a wrong constant would scale every CPU figure of
/// both sides of a comparison alike.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of one `/proc/<pid>/stat` (or `task/<tid>/stat`) line the
/// benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// Parent process id.
    pub ppid: u32,
    /// User + system CPU seconds of the process (or thread) itself.
    pub cpu_s: f64,
    /// User + system CPU seconds of its reaped children.
    pub children_cpu_s: f64,
}

/// Parses one stat line. The command name may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    let num = |field: usize| fields.get(field - 3)?.parse::<f64>().ok();
    Some(Stat {
        ppid: fields.get(1)?.parse().ok()?,
        cpu_s: (num(14)? + num(15)?) / TICKS_PER_SEC,
        children_cpu_s: (num(16)? + num(17)?) / TICKS_PER_SEC,
    })
}

/// Parses the `VmHWM:` (peak resident set) line of a `/proc/<pid>/status`
/// text into kilobytes.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

fn read_stat(path: &str) -> Option<Stat> {
    parse_stat(&fs::read_to_string(path).ok()?)
}

/// Process ids of the live children of this process, found by parent pid.
pub fn children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = dir
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| read_stat(&format!("/proc/{pid}/stat")).is_some_and(|s| s.ppid == me))
        .collect();
    out.sort_unstable();
    out
}

/// User + system CPU seconds spent so far by this process, its reaped
/// children and its live children. Monotonic across a child's death as
/// long as the parent reaps it (`Cluster::kill` and `shutdown` both wait).
pub fn tree_cpu_s() -> f64 {
    let own = read_stat("/proc/self/stat").map_or(0.0, |s| s.cpu_s + s.children_cpu_s);
    let live: f64 = children()
        .iter()
        .filter_map(|pid| read_stat(&format!("/proc/{pid}/stat")))
        .map(|s| s.cpu_s)
        .sum();
    own + live
}

/// Parses the aggregate `cpu` line of `/proc/stat` into seconds of steal:
/// time the hypervisor ran something else while a vCPU had work to do.
pub fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_ascii_whitespace().nth(8)?.parse().ok()?;
    Some(steal / TICKS_PER_SEC)
}

/// Steal seconds of all vCPUs since boot (`0` where it is not reported).
pub fn host_steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_s(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of `pid` in kilobytes (`0` if it is gone).
pub fn vm_hwm_kb(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or(0)
}

/// Sum of the peak resident sets of the live children, in kilobytes.
pub fn children_hwm_kb() -> u64 {
    children().into_iter().map(vm_hwm_kb).sum()
}

/// The layer a thread's CPU is booked to, from its kernel thread name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadGroup {
    /// The load generator: the main thread of the benchmark process.
    Client,
    /// `oc-serve-reactor-*` threads (names are cut to 15 bytes by the kernel).
    Reactor,
    /// `oc-serve-shard-*` threads.
    Shard,
}

/// Maps a kernel thread name to its group. `is_main` marks the main
/// thread of the benchmark process itself.
pub fn thread_group(comm: &str, is_main: bool) -> Option<ThreadGroup> {
    if is_main {
        Some(ThreadGroup::Client)
    } else if comm.starts_with("oc-serve-reacto") {
        Some(ThreadGroup::Reactor)
    } else if comm.starts_with("oc-serve-shard-") {
        Some(ThreadGroup::Shard)
    } else {
        None
    }
}

/// CPU seconds so far of every grouped thread of this process and its
/// live children, keyed by `(pid, tid)`.
pub fn thread_cpu() -> Vec<((u32, u32), ThreadGroup, f64)> {
    let me = std::process::id();
    let mut out = Vec::new();
    for pid in std::iter::once(me).chain(children()) {
        let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
            continue;
        };
        for tid in tasks
            .flatten()
            .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        {
            let base = format!("/proc/{pid}/task/{tid}");
            let Ok(comm) = fs::read_to_string(format!("{base}/comm")) else {
                continue;
            };
            let is_main = pid == me && tid == me;
            let Some(group) = thread_group(comm.trim_end(), is_main) else {
                continue;
            };
            if let Some(stat) = read_stat(&format!("{base}/stat")) {
                out.push(((pid, tid), group, stat.cpu_s));
            }
        }
    }
    out
}

/// Per-group CPU spent between two [`thread_cpu`] readings: `(total
/// seconds, seconds of the busiest single thread)`. Threads present only
/// in `after` count from zero; threads that vanished are dropped.
pub fn thread_cpu_delta(
    before: &[((u32, u32), ThreadGroup, f64)],
    after: &[((u32, u32), ThreadGroup, f64)],
    group: ThreadGroup,
) -> (f64, f64) {
    let mut total = 0.0;
    let mut busiest = 0.0f64;
    for (key, g, cpu) in after.iter().filter(|(_, g, _)| *g == group) {
        let start = before
            .iter()
            .find(|(k, bg, _)| k == key && bg == g)
            .map_or(0.0, |(_, _, c)| *c);
        let spent = (cpu - start).max(0.0);
        total += spent;
        busiest = busiest.max(spent);
    }
    (total, busiest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (oc (bench) x) S 77 4242 4242 0 -1 4194304 1 2 3 4 \
                        150 50 30 20 20 0 5 0 100 1000 200 18446744073709551615";

    #[test]
    fn stat_line_with_awkward_comm_parses() {
        let s = parse_stat(STAT).unwrap();
        assert_eq!(s.ppid, 77);
        assert!((s.cpu_s - 2.0).abs() < 1e-12);
        assert!((s.children_cpu_s - 0.5).abs() < 1e-12);
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 2 3"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat =
            "cpu  217231 2572 58387 640043 4232 0 8164 15881 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_s(stat), Some(158.81));
        assert_eq!(parse_steal_s("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal_s("cpu  1 2 3\n"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn threads_are_grouped_by_truncated_name() {
        assert_eq!(
            thread_group("oc-serve-reacto", false),
            Some(ThreadGroup::Reactor)
        );
        assert_eq!(
            thread_group("oc-serve-shard-", false),
            Some(ThreadGroup::Shard)
        );
        assert_eq!(
            thread_group("oc-benchmark", true),
            Some(ThreadGroup::Client)
        );
        assert_eq!(thread_group("oc-serve-accept", false), None);
    }

    #[test]
    fn thread_delta_sums_and_finds_the_busiest() {
        use ThreadGroup::Shard;
        let before = vec![((1, 10), Shard, 1.0), ((1, 11), Shard, 2.0)];
        let after = vec![
            ((1, 10), Shard, 1.5),
            ((1, 11), Shard, 4.0),
            ((2, 20), Shard, 0.25),
            ((1, 12), ThreadGroup::Reactor, 9.0),
        ];
        let (total, busiest) = thread_cpu_delta(&before, &after, Shard);
        assert!((total - 2.75).abs() < 1e-12);
        assert!((busiest - 2.0).abs() < 1e-12);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(tree_cpu_s() >= 0.0);
        assert!(vm_hwm_kb(std::process::id()) > 0);
        assert_eq!(vm_hwm_kb(u32::MAX), 0);
    }
}
