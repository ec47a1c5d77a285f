//! `qar` — mine quantitative association rules from CSV files.
//!
//! See `qar help` or [`quantrules::cli::USAGE`].

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::process::ExitCode;

use quantrules::cli::{self, Command};
use quantrules::table::csv;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse_command(&args) {
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            ExitCode::SUCCESS
        }
        Ok(Command::Mine(mine)) => match run_mine(&mine) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::Generate(gen)) => match run_generate(&gen) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::TraceCheck(check)) => match run_trace_check(&check) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::Query(query)) => match run_query(&query) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::Analyze(analyze)) => match run_analyze(&analyze) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::StoreCheck(check)) => match run_store_check(&check) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::Fuzz(fuzz)) => match run_fuzz(&fuzz) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => fail(&format!("{n} divergence(s) found; see fixtures above")),
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::Serve(serve)) => match run_serve(&serve) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::BenchServe(bench)) => match run_bench_serve(&bench) {
            Ok(qps) if bench.floor > 0.0 && qps < bench.floor => fail(&format!(
                "bench-serve: {qps:.0} queries/sec is below the {:.0} floor",
                bench.floor
            )),
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::BenchAnalytics(bench)) => match run_bench_analytics(&bench) {
            Ok(rps) if bench.floor > 0.0 && rps < bench.floor => fail(&format!(
                "bench-analytics: {rps:.0} rules/sec is below the {:.0} floor",
                bench.floor
            )),
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::BenchDist(bench)) => match run_bench_dist(&bench) {
            Ok(speedup) if bench.floor > 0.0 && speedup < bench.floor => fail(&format!(
                "bench-dist: {speedup:.2}x counting speedup is below the {:.2}x floor",
                bench.floor
            )),
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::BenchUpdate(bench)) => match run_bench_update(&bench) {
            Ok(speedup) if bench.floor > 0.0 && speedup < bench.floor => fail(&format!(
                "bench-update: {speedup:.2}x update speedup is below the {:.2}x floor",
                bench.floor
            )),
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        },
        Ok(Command::Worker(worker)) => {
            let opts = quantrules::dist::WorkerOptions {
                num_threads: worker.threads,
            };
            match quantrules::dist::run_worker(&worker.connect, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&format!("worker: {e}")),
            }
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// Run the rule-serving daemon: print the bound address (port 0 is
/// OS-assigned, so scripts parse this line), then block in the accept
/// loop until a shutdown frame arrives.
fn run_serve(args: &cli::ServeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let slots = cli::catalog_slots(&args.catalogs)?;
    let sink = cli::trace_sink(args.trace);
    let server = quantrules::store::Server::bind(
        &slots,
        &quantrules::store::ServerConfig {
            port: args.port,
            threads: args.threads,
        },
        sink,
    )?;
    println!(
        "listening on {} ({} catalog(s), {} worker(s))",
        server.local_addr(),
        slots.len(),
        server.threads()
    );
    std::io::stdout().flush()?;
    server.serve()?;
    Ok(())
}

fn run_bench_serve(args: &cli::BenchServeArgs) -> Result<f64, Box<dyn std::error::Error>> {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let qps = cli::run_bench_serve(args, &mut lock)?;
    lock.flush()?;
    Ok(qps)
}

/// Read a binary input that may be a path or `-` for stdin.
fn read_input_bytes(path: &str) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin().read_to_end(&mut buf)?;
        Ok(buf)
    } else {
        Ok(std::fs::read(path)?)
    }
}

fn run_query(args: &cli::QueryArgs) -> Result<(), Box<dyn std::error::Error>> {
    let bytes = read_input_bytes(&args.catalog)?;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    cli::run_query(&bytes, args, &mut lock)?;
    lock.flush()?;
    Ok(())
}

fn run_analyze(args: &cli::AnalyzeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let catalog_bytes = std::fs::read(&args.catalog)?;
    let csv_bytes = read_input_bytes(&args.input)?;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let annotated = cli::run_analyze(&catalog_bytes, &csv_bytes, args, &mut lock)?;
    let dest = args.output.as_deref().unwrap_or(&args.catalog);
    std::fs::write(dest, annotated)?;
    writeln!(lock, "annotated catalog written to {dest}")?;
    lock.flush()?;
    Ok(())
}

fn run_bench_analytics(args: &cli::BenchAnalyticsArgs) -> Result<f64, Box<dyn std::error::Error>> {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let rps = cli::run_bench_analytics(args, &mut lock)?;
    lock.flush()?;
    Ok(rps)
}

fn run_bench_dist(args: &cli::BenchDistArgs) -> Result<f64, Box<dyn std::error::Error>> {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let speedup = cli::run_bench_dist(args, &mut lock)?;
    lock.flush()?;
    Ok(speedup)
}

fn run_bench_update(args: &cli::BenchUpdateArgs) -> Result<f64, Box<dyn std::error::Error>> {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let speedup = cli::run_bench_update(args, &mut lock)?;
    lock.flush()?;
    Ok(speedup)
}

fn run_store_check(args: &cli::StoreCheckArgs) -> Result<(), Box<dyn std::error::Error>> {
    let bytes = read_input_bytes(&args.input)?;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    cli::run_store_check(&bytes, &mut lock)?;
    lock.flush()?;
    Ok(())
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("qar: {msg}");
    ExitCode::FAILURE
}

fn run_fuzz(args: &cli::FuzzArgs) -> Result<usize, Box<dyn std::error::Error>> {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let divergences = cli::run_fuzz(args, &mut lock)?;
    lock.flush()?;
    Ok(divergences)
}

fn run_mine(args: &cli::MineArgs) -> Result<(), Box<dyn std::error::Error>> {
    let mut args = args.clone();
    for (attr, path) in std::mem::take(&mut args.taxonomy_files) {
        let text = std::fs::read_to_string(&path)?;
        let taxonomy = cli::parse_taxonomy(&text)?;
        args.config.taxonomies.insert(attr, taxonomy);
    }
    let args = &args;
    let spawn = cli::process_spawn(args)?;
    if args.update.is_some() {
        // Incremental: the schema and configuration come from the catalog,
        // and the CLI layer reads the delta (in memory or spilled) itself.
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        cli::run_mine_update(args, spawn, cli::trace_sink(args.trace), &mut lock)?;
        lock.flush()?;
        return Ok(());
    }
    if args.chunk_rows > 0 {
        // Out-of-core: the CLI layer streams the file itself (twice).
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        cli::run_mine_chunked(args, spawn, &mut lock)?;
        lock.flush()?;
        return Ok(());
    }
    let schema = cli::build_schema(&args.schema)?;
    let table = if args.input == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        csv::read_table(buf.as_bytes(), &schema)?
    } else {
        let file = File::open(&args.input)?;
        csv::read_table(BufReader::new(file), &schema)?
    };
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    cli::run_mine_on_table(&table, args, spawn, &mut lock)?;
    lock.flush()?;
    Ok(())
}

fn run_trace_check(args: &cli::TraceCheckArgs) -> Result<(), Box<dyn std::error::Error>> {
    let schema_path = args
        .schema
        .as_deref()
        .unwrap_or("schemas/trace_events.schema.json");
    let schema_text = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("cannot read schema `{schema_path}`: {e}"))?;
    let input = if args.input == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf
    } else {
        std::fs::read_to_string(&args.input)
            .map_err(|e| format!("cannot read trace `{}`: {e}", args.input))?
    };
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    cli::run_trace_check(&schema_text, &input, &mut lock)?;
    lock.flush()?;
    Ok(())
}

fn run_generate(args: &cli::GenerateArgs) -> Result<(), Box<dyn std::error::Error>> {
    if args.output == "-" {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        cli::run_generate(args, &mut lock)?;
        lock.flush()?;
    } else {
        let mut file = std::io::BufWriter::new(File::create(&args.output)?);
        cli::run_generate(args, &mut file)?;
        file.flush()?;
    }
    Ok(())
}
