//! Gnuplot script generation: turn the `results/*.csv` tables into the
//! paper's actual plots.
//!
//! Each script is self-contained (`gnuplot results/plots/figNN.gnuplot`
//! renders `results/plots/figNN.png`) and reads the CSV its experiment
//! binary wrote, so the pipeline is: run the binary (or bench), run
//! gnuplot, compare against the paper's figure.

/// The gnuplot body of every plotted figure, keyed by its artifact stem,
/// in the order `write_all` writes them.
const SCRIPTS: &[(&str, &str)] = &[
    ("fig03_linearity", "set xlabel 'cardinality n'\nset ylabel 'slots'\n\
        plot 'results/fig03_linearity.csv' skip 1 using 1:2 with linespoints title 'zeros p=0.1', \\\n\
        '' skip 1 using 1:3 with linespoints title 'ones p=0.1', \\\n\
        '' skip 1 using 1:5 with linespoints title 'zeros p=0.2', \\\n\
        '' skip 1 using 1:6 with linespoints title 'ones p=0.2'\n"),
    ("fig05_monotonicity", "set xlabel 'cardinality n'\nset ylabel 'f1 / f2'\n\
        plot 'results/fig05_monotonicity.csv' skip 1 using 1:2 with lines title 'f1', \\\n\
        '' skip 1 using 1:3 with lines title 'f2'\n"),
    ("fig07a_accuracy_vs_n", "set logscale x\nset xlabel 'cardinality n'\nset ylabel 'accuracy |n_hat - n| / n'\nset yrange [0:0.06]\n\
        plot 'results/fig07a_accuracy_vs_n.csv' skip 1 using 1:2 with linespoints title 'T1', \\\n\
        '' skip 1 using 1:3 with linespoints title 'T2', \\\n\
        '' skip 1 using 1:4 with linespoints title 'T3'\n"),
    ("fig07b_accuracy_vs_epsilon", "set xlabel 'epsilon'\nset ylabel 'accuracy'\nset yrange [0:0.06]\n\
        plot 'results/fig07b_accuracy_vs_epsilon.csv' skip 1 using 1:2 with linespoints title 'T1', \\\n\
        '' skip 1 using 1:3 with linespoints title 'T2', \\\n\
        '' skip 1 using 1:4 with linespoints title 'T3'\n"),
    ("fig07c_accuracy_vs_delta", "set xlabel 'delta'\nset ylabel 'accuracy'\nset yrange [0:0.06]\n\
        plot 'results/fig07c_accuracy_vs_delta.csv' skip 1 using 1:2 with linespoints title 'T1', \\\n\
        '' skip 1 using 1:3 with linespoints title 'T2', \\\n\
        '' skip 1 using 1:4 with linespoints title 'T3'\n"),
    ("fig08_cdf", "set xlabel 'quantile'\nset ylabel 'estimate n_hat'\n\
        plot 'results/fig08_cdf.csv' skip 1 using 1:2 with linespoints title 'T1', \\\n\
        '' skip 1 using 1:3 with linespoints title 'T2', \\\n\
        '' skip 1 using 1:4 with linespoints title 'T3'\n"),
    ("fig09a_accuracy_vs_n", "set logscale x\nset xlabel 'cardinality n'\nset ylabel 'accuracy'\n\
        plot 'results/fig09a_accuracy_vs_n.csv' skip 1 using 1:2 with linespoints title 'BFCE', \\\n\
        '' skip 1 using 1:3 with linespoints title 'ZOE', \\\n\
        '' skip 1 using 1:4 with linespoints title 'SRC'\n"),
    ("fig10a_time_vs_n", "set logscale xy\nset xlabel 'cardinality n'\nset ylabel 'execution time (s)'\n\
        plot 'results/fig10a_time_vs_n.csv' skip 1 using 1:2 with linespoints title 'BFCE', \\\n\
        '' skip 1 using 1:3 with linespoints title 'ZOE', \\\n\
        '' skip 1 using 1:4 with linespoints title 'SRC'\n"),
    ("fig10b_time_vs_epsilon", "set logscale y\nset xlabel 'epsilon'\nset ylabel 'execution time (s)'\n\
        plot 'results/fig10b_time_vs_epsilon.csv' skip 1 using 1:2 with linespoints title 'BFCE', \\\n\
        '' skip 1 using 1:3 with linespoints title 'ZOE', \\\n\
        '' skip 1 using 1:4 with linespoints title 'SRC'\n"),
    ("fig10c_time_vs_delta", "set logscale y\nset xlabel 'delta'\nset ylabel 'execution time (s)'\n\
        plot 'results/fig10c_time_vs_delta.csv' skip 1 using 1:2 with linespoints title 'BFCE', \\\n\
        '' skip 1 using 1:3 with linespoints title 'ZOE', \\\n\
        '' skip 1 using 1:4 with linespoints title 'SRC'\n"),
    ("crossover", "set logscale xy\nset xlabel 'cardinality n'\nset ylabel 'execution time (s)'\n\
        plot 'results/crossover.csv' skip 1 using 1:2 with linespoints title 'Q-inventory (exact)', \\\n\
        '' skip 1 using 1:3 with linespoints title 'BFCE (0.05, 0.05)'\n"),
];

/// The whole script for one figure: the shared preamble, then `body`.
fn script(stem: &str, body: &str) -> String {
    let title = stem.replace('_', " ");
    format!(
        "set datafile separator comma\n\
         set terminal pngcairo size 900,600\n\
         set output 'results/plots/{stem}.png'\n\
         set title '{title}'\n\
         set key outside right\n\
         set grid\n{body}"
    )
}

/// Write every script into `dir`, returning the written paths.
pub fn write_all(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for &(stem, body) in SCRIPTS {
        let path = dir.join(format!("{stem}.gnuplot"));
        std::fs::write(&path, script(stem, body))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::ARTIFACTS;

    #[test]
    fn every_script_plots_its_own_artifact() {
        for &(stem, body) in SCRIPTS {
            assert!(
                ARTIFACTS.iter().any(|a| a.stem == stem),
                "{stem} is not an artifact"
            );
            let script = script(stem, body);
            assert!(script.contains("set datafile separator comma"));
            assert!(
                script.contains(&format!("results/{stem}.csv")),
                "{stem} script must read its own CSV"
            );
            assert!(script.contains(&format!("results/plots/{stem}.png")));
            assert!(script.contains("plot "));
        }
    }

    #[test]
    fn comparison_plots_show_all_three_contenders() {
        for (stem, body) in SCRIPTS {
            if ["fig09a_accuracy_vs_n", "fig10a_time_vs_n"].contains(stem) {
                for contender in ["BFCE", "ZOE", "SRC"] {
                    assert!(body.contains(contender), "{stem} missing {contender}");
                }
            }
        }
    }

    #[test]
    fn write_all_creates_every_script() {
        let dir = std::env::temp_dir().join("rfid_plots_test");
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_all(&dir).unwrap();
        assert_eq!(written.len(), SCRIPTS.len());
        for path in &written {
            assert!(path.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
