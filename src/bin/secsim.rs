//! The `secsim` command-line driver.
//!
//! ```text
//! secsim run --bench mcf --policy commit [--l2 1m] [--insts 1000000] [--ruu 64] [--tree]
//! secsim run --program victim.sasm --policy commit
//! secsim asm program.sasm [--out program.sprog] [--hex] [--policy commit] [--trace]
//! secsim attack --exploit pointer-conversion --policy commit
//! secsim list
//! ```

use secsim::attack::{run_exploit, Exploit};
use secsim::core::{Policy, SecureConfig};
use secsim::cpu::{CpuConfig, SimConfig, SimOutcome, SimReport, SimSession, TraceConfig};
use secsim::mem::MemSystemConfig;
use secsim::workloads::{assemble_named, register_program, BenchId};
use std::process::ExitCode;

fn parse_policy(name: &str) -> Option<Policy> {
    Some(match name {
        "baseline" | "none" => Policy::baseline(),
        "issue" => Policy::authen_then_issue(),
        "commit" => Policy::authen_then_commit(),
        "write" => Policy::authen_then_write(),
        "fetch" => Policy::authen_then_fetch(),
        "commit+fetch" | "cf" => Policy::commit_plus_fetch(),
        "commit+obf" | "obf" => Policy::commit_plus_obfuscation(),
        _ => return None,
    })
}

fn parse_exploit(name: &str) -> Option<Exploit> {
    Exploit::ALL.into_iter().find(|e| e.name() == name)
}

struct Args {
    map: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Self {
        let mut map = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    i += 1;
                    args[i].clone()
                } else {
                    "true".to_string()
                };
                map.push((key.to_string(), value));
            } else {
                positional.push(args[i].clone());
            }
            i += 1;
        }
        Self { map, positional }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                let v = v.trim();
                if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                }
                .map_err(|_| format!("--{key}: expected a number, got `{v}`"))
            }
        }
    }
}

fn print_report(r: &SimReport, verbose: bool) {
    println!("insts   {:>12}", r.insts);
    println!("cycles  {:>12}", r.cycles);
    println!("IPC     {:>12.4}", r.ipc());
    println!(
        "status  {:>12}",
        if r.decode_fault {
            "decode-fault"
        } else if r.halted {
            "halted"
        } else {
            "inst-cap"
        }
    );
    if let Some(e) = r.exception {
        println!(
            "AUTH EXCEPTION at cycle {} (line {:#x}, precise: {})",
            e.cycle, e.line_addr, e.precise
        );
    }
    for io in &r.io_events {
        println!("out port {} = {:#x} @ cycle {}", io.port, io.value, io.cycle);
    }
    if verbose {
        println!("--- counters ---\n{}", r.counters);
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let policy_name = args.get("policy").unwrap_or("commit");
    let policy = parse_policy(policy_name).ok_or_else(|| format!("unknown policy `{policy_name}`"))?;
    let bench: BenchId = match (args.get("bench"), args.get("program")) {
        (Some(_), Some(_)) => return Err("run: --bench and --program are exclusive".into()),
        (Some(name), None) => name.parse().map_err(|e| format!("{e} (try `secsim list`)"))?,
        (None, Some(path)) => {
            BenchId::from_arg(path).map_err(|e| format!("--program {path}: {e}"))?
        }
        (None, None) => return Err("run: --bench <name> or --program <file> is required".into()),
    };
    let mut w = bench.build(args.num("seed", 2006)?);
    let mem = match args.get("l2").unwrap_or("256k") {
        "256k" | "256K" => MemSystemConfig::paper_256k(),
        "1m" | "1M" => MemSystemConfig::paper_1m(),
        other => return Err(format!("--l2: expected 256k or 1m, got `{other}`")),
    };
    let cpu = match args.num("ruu", 128)? {
        128 => CpuConfig::paper_reference(),
        64 => CpuConfig::paper_ruu64(),
        other => {
            let ruu_size = u32::try_from(other).map_err(|_| {
                let typed = args.get("ruu").unwrap_or_default().trim();
                format!("--ruu: expected an RUU size below 2^32, got `{typed}`")
            })?;
            CpuConfig { ruu_size, ..CpuConfig::paper_reference() }
        }
    };
    let secure = if args.flag("tree") {
        SecureConfig::paper_with_tree(policy, w.data_base, w.data_bytes)
    } else {
        SecureConfig::paper(policy)
    }
    .with_protected_region(w.data_base, w.data_bytes);
    let cfg = SimConfig {
        cpu,
        mem,
        secure,
        max_insts: args.num("insts", 1_000_000)?,
        max_cycles: args.num("cycles", 0)?,
    };
    cfg.validate().map_err(|e| format!("run: {e}"))?;
    eprintln!("running {bench} under {policy} ({} L2)...", args.get("l2").unwrap_or("256k"));
    let trace = args.flag("trace") || args.get("trace-out").is_some();
    let chrome_path = args.get("chrome-trace");
    let mut session = SimSession::new(&cfg).trace_bus(trace);
    if chrome_path.is_some() {
        session = session.trace(TraceConfig::default());
    }
    let out = session.run(&mut w.mem, w.entry);
    match &out {
        SimOutcome::TamperDetected { cycle, line_addr, cause, exposure, .. } => eprintln!(
            "tampering detected at cycle {cycle}: line {line_addr:#x} ({cause}); \
             exposure before detection: {exposure}"
        ),
        SimOutcome::CycleLimitExceeded { cycle, .. } => {
            eprintln!("cycle fence tripped at {cycle} before the program finished")
        }
        SimOutcome::Completed(_) => {}
    }
    let run = out.into_run();
    let r = run.report;
    print_report(&r, args.flag("verbose"));
    if let Some(path) = chrome_path {
        let t = run.trace.expect("tracing was enabled");
        std::fs::write(path, t.to_chrome().render()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("chrome trace written to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = args.get("trace-out") {
        write_trace_csv(path, &r)?;
        eprintln!("bus trace ({} events) written to {path}", r.bus_events.len());
    } else if trace {
        println!("--- first bus events ---");
        for e in r.bus_events.iter().take(20) {
            println!("cycle {:>8}  {:#010x}  {:?}", e.cycle, e.addr, e.kind);
        }
    }
    Ok(())
}

/// Exports the attacker-visible bus trace as CSV.
fn write_trace_csv(path: &str, r: &SimReport) -> Result<(), String> {
    let mut out = String::from("cycle,addr,kind\n");
    for e in &r.bus_events {
        out.push_str(&format!("{},{:#010x},{:?}\n", e.cycle, e.addr, e.kind));
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// `secsim sweep --bench <name>`: one benchmark across every policy.
fn cmd_sweep(args: &Args) -> Result<(), String> {
    let bench = args.get("bench").ok_or("sweep: --bench <name> is required")?;
    let bench: BenchId = bench.parse().map_err(|e| format!("{e} (try `secsim list`)"))?;
    let insts = args.num("insts", 300_000)?;
    let policies: [(&str, Policy); 7] = [
        ("baseline", Policy::baseline()),
        ("issue", Policy::authen_then_issue()),
        ("write", Policy::authen_then_write()),
        ("commit", Policy::authen_then_commit()),
        ("fetch", Policy::authen_then_fetch()),
        ("commit+fetch", Policy::commit_plus_fetch()),
        ("commit+obf", Policy::commit_plus_obfuscation()),
    ];
    let mut base_ipc = 0.0;
    println!("{:<14} {:>10} {:>8} {:>8}", "policy", "cycles", "IPC", "norm");
    for (name, policy) in policies {
        let mut w = bench.build(args.num("seed", 2006)?);
        let mut cfg = SimConfig::paper_256k(policy).with_max_insts(insts);
        cfg.secure = cfg.secure.with_protected_region(w.data_base, w.data_bytes);
        let r = SimSession::new(&cfg).run(&mut w.mem, w.entry).into_report();
        if base_ipc == 0.0 {
            base_ipc = r.ipc();
        }
        println!("{:<14} {:>10} {:>8.3} {:>8.3}", name, r.cycles, r.ipc(), r.ipc() / base_ipc);
    }
    Ok(())
}

fn cmd_asm(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("asm: a source file is required")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program");
    let image = assemble_named(&source, stem).map_err(|e| format!("{path}:{e}"))?;
    eprintln!(
        "assembled {}: {} code words at {:#x}, {} data segment(s), entry {:#x}, footprint {} bytes",
        image.name,
        image.code.len(),
        image.code_base,
        image.segments.len(),
        image.entry,
        image.footprint,
    );
    if let Some(out) = args.get("out") {
        std::fs::write(out, image.to_bytes()).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("program image written to {out}");
        return Ok(());
    }
    if args.flag("hex") {
        for (i, w) in image.code.iter().enumerate() {
            println!(
                "{:#010x}: {w:08x}  {}",
                image.code_base + 4 * i as u32,
                secsim::isa::decode(*w)
            );
        }
        return Ok(());
    }
    let policy_name = args.get("policy").unwrap_or("commit");
    let policy = parse_policy(policy_name).ok_or_else(|| format!("unknown policy `{policy_name}`"))?;
    let mut w = BenchId::External(register_program(image)).build(args.num("seed", 2006)?);
    let mut cfg = SimConfig::paper_256k(policy).with_max_insts(args.num("insts", 10_000_000)?);
    cfg.secure = cfg.secure.with_protected_region(w.data_base, w.data_bytes);
    let out = SimSession::new(&cfg).trace_bus(args.flag("trace")).run(&mut w.mem, w.entry);
    let r = out.into_run().report;
    print_report(&r, args.flag("verbose"));
    if args.flag("trace") {
        println!("--- first bus events ---");
        for e in r.bus_events.iter().take(20) {
            println!("cycle {:>8}  {:#010x}  {:?}", e.cycle, e.addr, e.kind);
        }
    }
    Ok(())
}

fn cmd_attack(args: &Args) -> Result<(), String> {
    let name = args.get("exploit").ok_or("attack: --exploit <name> is required")?;
    let exploit = parse_exploit(name).ok_or_else(|| {
        format!(
            "unknown exploit `{name}`; available: {}",
            Exploit::ALL.map(|e| e.name()).join(", ")
        )
    })?;
    let policy_name = args.get("policy").unwrap_or("commit");
    let policy = parse_policy(policy_name).ok_or_else(|| format!("unknown policy `{policy_name}`"))?;
    eprintln!("running {} against {policy}...", exploit.name());
    let out = run_exploit(exploit, policy);
    println!("leaked   {}", out.leaked);
    match out.recovered {
        Some(v) => println!("secret   {v:#010x} (recovered by the adversary)"),
        None => println!("secret   not recovered"),
    }
    match out.exception_cycle {
        Some(c) => println!("caught   authentication exception at cycle {c}"),
        None => println!("caught   never (tampering undetected)"),
    }
    println!("trials   {}", out.trials);
    Ok(())
}

fn cmd_list() {
    let names: Vec<&str> = BenchId::all().map(BenchId::name).collect();
    println!("benchmarks: {}", names.join(", "));
    println!(
        "policies:   baseline issue commit write fetch commit+fetch commit+obf"
    );
    println!("exploits:   {}", Exploit::ALL.map(|e| e.name()).join(", "));
}

const USAGE: &str = "usage:
  secsim run   --bench <name> | --program <f.sasm|f.sprog> [--policy P] [--l2 256k|1m] [--insts N] [--ruu N] [--tree] [--trace] [--trace-out f.csv] [--chrome-trace f.json] [--verbose]
  secsim sweep --bench <name> [--insts N] [--seed N]
  secsim asm   <file.sasm> [--out f.sprog] [--hex] [--policy P] [--insts N] [--trace]
  secsim attack --exploit <name> [--policy P]
  secsim list";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    let result = match args.positional.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("asm") => cmd_asm(&args),
        Some("attack") => cmd_attack(&args),
        Some("list") => {
            cmd_list();
            Ok(())
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
