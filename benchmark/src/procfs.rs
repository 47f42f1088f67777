//! Outside-in probes: what `/proc` says about a child process.
//!
//! The server's threads are already named (`io-*`, `router`, `shard-*`),
//! so per-layer CPU, run-queue wait and wakeups can be read from
//! `/proc/<pid>/task/*/{comm,schedstat,status}` without touching the
//! server. Everything is parsed as text — no `unsafe`, no libc. Unknown
//! or absent names fall into [`Class::Other`] and absent fields read 0,
//! so a later change that merges or renames server threads moves numbers
//! between classes instead of breaking the harness.

use std::fs;

/// The thread classes per-layer `serve.*` metrics are bucketed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Event-loop threads (`io-*`).
    Io,
    /// The router thread.
    Router,
    /// Shard workers (`shard-*`).
    Shard,
    /// Everything else: main, acceptor, per-connection threads, …
    Other,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 4] = [Class::Io, Class::Router, Class::Shard, Class::Other];

    /// The class of a thread with `comm` as its name.
    pub fn of(comm: &str) -> Class {
        let comm = comm.trim();
        if comm.starts_with("io-") {
            Class::Io
        } else if comm == "router" {
            Class::Router
        } else if comm.starts_with("shard-") {
            Class::Shard
        } else {
            Class::Other
        }
    }

    /// Metric-name segment: `io`, `router`, `shard`, `other`.
    pub fn label(self) -> &'static str {
        match self {
            Class::Io => "io",
            Class::Router => "router",
            Class::Shard => "shard",
            Class::Other => "other",
        }
    }
}

/// Scheduler counters of one thread, or of a class of threads summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Voluntary context switches (the thread slept and was woken).
    pub voluntary: u64,
    /// Involuntary context switches (the thread was preempted).
    pub involuntary: u64,
}

impl Sched {
    fn add(&mut self, o: Sched) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
        self.voluntary += o.voluntary;
        self.involuntary += o.involuntary;
    }

    fn since(self, earlier: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }
}

/// `schedstat` is `run_ns wait_ns timeslices`; anything else reads 0.
pub fn parse_schedstat(text: &str) -> (u64, u64) {
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    match (it.next().flatten(), it.next().flatten()) {
        (Some(run), Some(wait)) => (run, wait),
        _ => (0, 0),
    }
}

/// The numeric value of `key:` in a `/proc/<pid>/status` text (the
/// leading integer of the line, so `VmHWM:  1820 kB` gives 1820).
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Per-class scheduler counters of one process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    classes: [Sched; 4],
}

impl ProcSample {
    /// Sum every live thread of `pid` into its class. A thread that
    /// exits mid-scan (or a process that is gone) contributes nothing.
    pub fn take(pid: u32) -> ProcSample {
        let mut sample = ProcSample::default();
        let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
            return sample;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap_or_default();
            let status = read("status");
            let (run_ns, wait_ns) = parse_schedstat(&read("schedstat"));
            sample.add(
                Class::of(&read("comm")),
                Sched {
                    run_ns,
                    wait_ns,
                    voluntary: parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
                    involuntary: parse_status_field(&status, "nonvoluntary_ctxt_switches")
                        .unwrap_or(0),
                },
            );
        }
        sample
    }

    fn add(&mut self, class: Class, s: Sched) {
        self.classes[class as usize].add(s);
    }

    /// Counters of one class.
    pub fn class(&self, class: Class) -> Sched {
        self.classes[class as usize]
    }

    /// Counters of the whole process.
    pub fn total(&self) -> Sched {
        let mut t = Sched::default();
        for c in self.classes {
            t.add(c);
        }
        t
    }

    /// What happened between `earlier` and `self`, class by class.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        let mut out = ProcSample::default();
        for c in Class::ALL {
            out.classes[c as usize] = self.class(c).since(earlier.class(c));
        }
        out
    }
}

/// Peak resident set (`VmHWM`) of `pid` in MiB; 0 when unreadable.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    parse_status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// `cutime + cstime` out of a `/proc/<pid>/stat` line, in clock ticks:
/// the CPU of children this process has waited for. The `comm` field may
/// itself contain spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat_children_ticks(stat: &str) -> u64 {
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    // `rest` starts at field 3 (state); cutime and cstime are 16 and 17.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let get = |field: usize| f.get(field - 3).and_then(|v| v.parse::<u64>().ok());
    get(16).unwrap_or(0) + get(17).unwrap_or(0)
}

/// CPU seconds of the children this process has reaped so far. A child
/// that exits takes its `/proc` entry with it, so the CPU of a finished
/// child (dead helper threads included) is read here, after the wait,
/// as a difference of two readings. Resolution is one clock tick (10 ms,
/// `USER_HZ` is 100 on Linux).
pub fn reaped_children_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_children_ticks(&stat) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_and_tolerates_garbage() {
        assert_eq!(parse_schedstat("123456 789 42\n"), (123456, 789));
        assert_eq!(parse_schedstat(""), (0, 0));
        assert_eq!(parse_schedstat("12"), (0, 0));
        assert_eq!(parse_schedstat("a b c"), (0, 0));
    }

    #[test]
    fn status_fields_parse_and_absent_keys_are_none() {
        let status = "Name:\twmlp-serve\nVmHWM:\t    1820 kB\nvoluntary_ctxt_switches:\t17\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(1820));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(3)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn thread_names_bucket_into_classes() {
        assert_eq!(Class::of("io-0\n"), Class::Io);
        assert_eq!(Class::of("io-13"), Class::Io);
        assert_eq!(Class::of("router"), Class::Router);
        assert_eq!(Class::of("shard-1"), Class::Shard);
        for other in [
            "wmlp-serve",
            "acceptor",
            "conn-3-rd",
            "",
            "routers",
            "shard",
        ] {
            assert_eq!(Class::of(other), Class::Other, "{other:?}");
        }
    }

    #[test]
    fn samples_sum_by_class_and_subtract() {
        let s = |run_ns| Sched {
            run_ns,
            wait_ns: 1,
            voluntary: 2,
            involuntary: 0,
        };
        let mut before = ProcSample::default();
        before.add(Class::Shard, s(10));
        let mut after = ProcSample::default();
        after.add(Class::Shard, s(40));
        after.add(Class::Shard, s(5));
        after.add(Class::Other, s(7));
        let d = after.since(&before);
        assert_eq!(d.class(Class::Shard).run_ns, 35);
        assert_eq!(d.class(Class::Shard).voluntary, 2);
        assert_eq!(d.class(Class::Io), Sched::default());
        assert_eq!(d.total().run_ns, 42);
        // A class that vanished (threads merged away) saturates at 0.
        assert_eq!(before.since(&after).class(Class::Shard).run_ns, 0);
    }

    #[test]
    fn a_missing_process_samples_as_zero() {
        assert_eq!(ProcSample::take(u32::MAX), ProcSample::default());
        assert!(peak_rss_mib(u32::MAX).abs() < 1e-12);
    }

    #[test]
    fn own_process_is_visible() {
        let me = ProcSample::take(std::process::id());
        assert!(me.total().run_ns > 0 || me.total().voluntary + me.total().involuntary > 0);
        assert!(peak_rss_mib(std::process::id()) > 0.0);
    }

    #[test]
    fn children_ticks_survive_a_hostile_comm() {
        let stat = "42 (a) b (c) S 1 42 42 0 -1 4194560 100 200 0 0 7 8 30 12 20 0 1 0 100 0 0";
        // fields: 3=S 4=1 5=42 6=42 7=0 8=-1 9=4194560 10=100 11=200
        // 12=0 13=0 14=7 15=8 16=30 17=12
        assert_eq!(parse_stat_children_ticks(stat), 42);
        assert_eq!(parse_stat_children_ticks("garbage"), 0);
        assert_eq!(parse_stat_children_ticks("1 (x) S 1"), 0);
    }
}
