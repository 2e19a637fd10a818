//! Golden snapshot tests for the paper-table renderers (Tables VI / VII)
//! and for the served comparison report.
//!
//! A fixed-seed AES comparison is rendered through `m3d-report` and
//! compared against a checked-in snapshot; the same comparison, run
//! through `FlowSession::execute`, must render to checked-in wire bytes
//! (every PPAC field at full precision). The flow is deterministic by
//! construction (see `tests/determinism.rs`), so any diff here means a
//! behavioural change in the flow or the formatters — update the snapshot
//! deliberately (regenerate with
//! `cargo test --test golden_tables -- --ignored --nocapture`), never to
//! silence an unexplained change.

use hetero3d::cost::CostModel;
use hetero3d::flow::{ComparisonSummary, FlowCommand, FlowOptions, FlowSession};
use hetero3d::json::ToJson;
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Netlist;
use hetero3d::report::{format_comparison, format_table7};

fn design() -> (Netlist, FlowOptions) {
    let netlist = Benchmark::Aes.generate(0.012, 41);
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 6;
    (netlist, options)
}

fn comparison() -> ComparisonSummary {
    let (netlist, options) = design();
    FlowSession::builder(&netlist)
        .options(options)
        .build()
        .and_then(|s| s.compare(&CostModel::default()))
        .expect("comparison succeeds on a valid netlist")
        .summary
}

/// The served five-way report, rendered to its wire bytes.
fn served_compare_report() -> String {
    let (netlist, options) = design();
    FlowSession::builder(&netlist)
        .options(options)
        .build()
        .expect("a valid netlist builds a session")
        .execute(&FlowCommand::CompareConfigs)
        .expect("comparison succeeds on a valid netlist")
        .to_json()
        .render()
}

const GOLDEN_TABLE6: &str = "\
Metric             Units         aes
------------------------------------
Frequency            GHz       2.565
Area                 mm2      0.0006
Chip Width            um          17
Density                %          65
WL                    mm        2.64
# MIVs                           129
Total Power           mW        0.74
WNS                   ns       0.004
TNS                   ns        0.00
Effective Delay       ns       0.386
PDP                   pJ        0.28
Die Cost         1e-6 C'       0.010
PPC                       364276.967
";

const GOLDEN_TABLE7: &str = "\
### vs 2D 9-Track
Metric             aes
----------------------
Si Area %        -29.0
Density %         -7.8
WL %              10.5
Total Power %     27.9
Eff. Delay %     -24.4
PDP %             -3.3
Die Cost %       -19.3
Cost per cm2 %   13.65
PPC %             28.2
Width (um)          28
WNS (ns)        -0.121
TNS (ns)         -0.53

### vs 2D 12-Track
Metric            aes
---------------------
Si Area %        12.3
Density %        -7.8
WL %             -2.8
Total Power %    -8.4
Eff. Delay %      6.2
PDP %            -2.7
Die Cost %       27.6
Cost per cm2 %  13.67
PPC %           -19.4
Width (um)         22
WNS (ns)        0.027
TNS (ns)         0.00

### vs M3D 9-Track
Metric             aes
----------------------
Si Area %        -23.5
Density %         -7.8
WL %              45.4
Total Power %     34.5
Eff. Delay %     -23.6
PDP %              2.7
Die Cost %       -23.5
Cost per cm2 %   -0.01
PPC %             27.3
Width (um)          19
WNS (ns)        -0.115
TNS (ns)         -0.53

### vs M3D 12-Track
Metric            aes
---------------------
Si Area %        12.3
Density %        -7.8
WL %             25.7
Total Power %    -8.0
Eff. Delay %      9.3
PDP %             0.6
Die Cost %       12.3
Cost per cm2 %   0.00
PPC %           -11.5
Width (um)         16
WNS (ns)        0.037
TNS (ns)         0.00
";

/// `FlowReport::Compare` wire bytes, every field at full precision.
const GOLDEN_COMPARE_REPORT: &str = "\
{\"kind\":\"compare\",\
\"comparison\":{\"design\":\"aes\",\
\"target_ghz\":2.5651576728205336,\
\"hetero\":{\"config\":\"hetero3d\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.0002828637391304351,\
\"si_area_mm2\":0.0005657274782608702,\
\"chip_width_um\":16.81855341967421,\
\"density_pct\":64.55306733953634,\
\"wirelength_mm\":2.635679519718877,\
\"mivs\":129,\
\"switching_mw\":0.18392163309942705,\
\"internal_mw\":0.11297042722085944,\
\"leakage_mw\":0.04820102934313578,\
\"clock_mw\":0.38992694311397574,\
\"total_power_mw\":0.735020032777398,\
\"wns_ns\":0.004064289155949086,\
\"tns_ns\":0,\
\"effective_delay_ns\":0.3857752948180233,\
\"pdp_pj\":0.2835525698418539,\
\"die_cost_uc\":0.00968132278282236,\
\"cost_per_cm2_uc\":1711.3050284536605,\
\"ppc\":364276.9672634654},\
\"homogeneous\":[{\"config\":\"2d9t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.0007966567542857136,\
\"si_area_mm2\":0.0007966567542857136,\
\"chip_width_um\":28.225108578811767,\
\"density_pct\":69.99999999999999,\
\"wirelength_mm\":2.385196909507619,\
\"mivs\":0,\
\"switching_mw\":0.19407176439148668,\
\"internal_mw\":0.14233713739370224,\
\"leakage_mw\":0.004840984233505621,\
\"clock_mw\":0.2332453817884227,\
\"total_power_mw\":0.5744952678071171,\
\"wns_ns\":-0.12073884236943544,\
\"tns_ns\":-0.5267530860251204,\
\"effective_delay_ns\":0.5105784263434079,\
\"pdp_pj\":0.29332488977869253,\
\"die_cost_uc\":0.01199545835044976,\
\"cost_per_cm2_uc\":1505.72480380273,\
\"ppc\":284206.65075649106},\
{\"config\":\"2d12t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.0005039712000000004,\
\"si_area_mm2\":0.0005039712000000004,\
\"chip_width_um\":22.449302884499563,\
\"density_pct\":70,\
\"wirelength_mm\":2.712552576919764,\
\"mivs\":0,\
\"switching_mw\":0.183047189219396,\
\"internal_mw\":0.1232022144239165,\
\"leakage_mw\":0.05392995513208804,\
\"clock_mw\":0.4424859681028053,\
\"total_power_mw\":0.8026653268782058,\
\"wns_ns\":0.02673981376778234,\
\"tns_ns\":0,\
\"effective_delay_ns\":0.36309977020619005,\
\"pdp_pj\":0.29144759574195295,\
\"die_cost_uc\":0.007587117798803307,\
\"cost_per_cm2_uc\":1505.4665422951355,\
\"ppc\":452233.4641851783},\
{\"config\":\"3d9t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.0003699360257142858,\
\"si_area_mm2\":0.0007398720514285716,\
\"chip_width_um\":19.233721057410754,\
\"density_pct\":70,\
\"wirelength_mm\":1.8123855586123174,\
\"mivs\":140,\
\"switching_mw\":0.1698670697099473,\
\"internal_mw\":0.12957060724471722,\
\"leakage_mw\":0.004396604175791836,\
\"clock_mw\":0.24246101753689048,\
\"total_power_mw\":0.5462952986673468,\
\"wns_ns\":-0.1153748557305988,\
\"tns_ns\":-0.528233015326099,\
\"effective_delay_ns\":0.5052144397045712,\
\"pdp_pj\":0.275996273229465,\
\"die_cost_uc\":0.01266219696793554,\
\"cost_per_cm2_uc\":1711.4036060001067,\
\"ppc\":286146.0249585043},\
{\"config\":\"3d12t\",\
\"frequency_ghz\":2.5651576728205336,\
\"footprint_mm2\":0.00025198560000000024,\
\"si_area_mm2\":0.0005039712000000005,\
\"chip_width_um\":15.874054302540364,\
\"density_pct\":69.99999999999999,\
\"wirelength_mm\":2.0974852205326178,\
\"mivs\":138,\
\"switching_mw\":0.17042630801924166,\
\"internal_mw\":0.1232022144239165,\
\"leakage_mw\":0.05392995513208804,\
\"clock_mw\":0.45125035749414305,\
\"total_power_mw\":0.7988088350693893,\
\"wns_ns\":0.037041302317353975,\
\"tns_ns\":0,\
\"effective_delay_ns\":0.3527982816566184,\
\"pdp_pj\":0.28181838438460566,\
\"die_cost_uc\":0.008624301157796442,\
\"cost_per_cm2_uc\":1711.2686514222307,\
\"ppc\":411440.24093408266}],\
\"deltas\":[{\"config\":\"2d9t\",\
\"si_area\":-28.987299082387846,\
\"density\":-7.781332372090922,\
\"wirelength\":10.501548497434765,\
\"total_power\":27.941877673425154,\
\"effective_delay\":-24.443479216147637,\
\"pdp\":-3.3315686044275497,\
\"die_cost\":-19.29176443300004,\
\"cost_per_cm2\":13.653240229006954,\
\"ppc\":28.173273318497667,\
\"width_um\":28.225108578811767,\
\"wns_ns\":-0.12073884236943544,\
\"tns_ns\":-0.5267530860251204},\
{\"config\":\"2d12t\",\
\"si_area\":12.253930038238249,\
\"density\":-7.781332372090942,\
\"wirelength\":-2.8339748270678764,\
\"total_power\":-8.427583930141793,\
\"effective_delay\":6.2449845669020165,\
\"pdp\":-2.7089006790398398,\
\"die_cost\":27.602115052825,\
\"cost_per_cm2\":13.672737345907215,\
\"ppc\":-19.449356115251327,\
\"width_um\":22.449302884499563,\
\"wns_ns\":0.02673981376778234,\
\"tns_ns\":0},\
{\"config\":\"3d9t\",\
\"si_area\":-23.53712007791845,\
\"density\":-7.781332372090942,\
\"wirelength\":45.42598329557028,\
\"total_power\":34.54628560239002,\
\"effective_delay\":-23.641276950910402,\
\"pdp\":2.7378255959661195,\
\"die_cost\":-23.541524371020625,\
\"cost_per_cm2\":-0.00576004082851138,\
\"ppc\":27.30457021595576,\
\"width_um\":19.233721057410754,\
\"wns_ns\":-0.1153748557305988,\
\"tns_ns\":-0.528233015326099},\
{\"config\":\"3d12t\",\
\"si_area\":12.253930038238222,\
\"density\":-7.781332372090922,\
\"wirelength\":25.659027006139983,\
\"total_power\":-7.98549033154474,\
\"effective_delay\":9.347271479485746,\
\"pdp\":0.6153556876834357,\
\"die_cost\":12.256316258974348,\
\"cost_per_cm2\":0.0021257346939378857,\
\"ppc\":-11.462970555224166,\
\"width_um\":15.874054302540364,\
\"wns_ns\":0.037041302317353975,\
\"tns_ns\":0}]}}";

fn assert_snapshot(actual: &str, golden: &str, table: &str) {
    let a = actual.trim_end();
    let g = golden.trim_end();
    if a != g {
        for (i, (al, gl)) in a.lines().zip(g.lines()).enumerate() {
            assert_eq!(al, gl, "{table}: first divergence at line {}", i + 1);
        }
        assert_eq!(
            a.lines().count(),
            g.lines().count(),
            "{table}: line count changed"
        );
    }
}

#[test]
fn table6_metric_rows_match_golden() {
    let cmp = comparison();
    assert_snapshot(&format_comparison(&[&cmp]), GOLDEN_TABLE6, "Table VI");
}

#[test]
fn table7_delta_rows_match_golden() {
    let cmp = comparison();
    assert_snapshot(&format_table7(&[&cmp]), GOLDEN_TABLE7, "Table VII");
}

#[test]
fn served_compare_report_matches_golden() {
    assert_eq!(served_compare_report(), GOLDEN_COMPARE_REPORT);
}

/// Regenerates the snapshots above:
/// `cargo test --test golden_tables -- --ignored --nocapture`
#[test]
#[ignore]
fn print_golden() {
    let cmp = comparison();
    println!("===TABLE6===");
    println!("{}", format_comparison(&[&cmp]));
    println!("===TABLE7===");
    println!("{}", format_table7(&[&cmp]));
}

/// Regenerates [`GOLDEN_COMPARE_REPORT`] as a Rust string literal, one
/// JSON member per source line:
/// `cargo test --test golden_tables -- --ignored --nocapture`
#[test]
#[ignore]
fn print_golden_compare_report() {
    let json = served_compare_report();
    println!("const GOLDEN_COMPARE_REPORT: &str = \"\\");
    println!("{}\";", json.replace('"', "\\\"").replace(',', ",\\\n"));
}
