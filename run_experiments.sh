#!/bin/bash
# Regenerates every table and figure of the paper (quick scale).
# Usage: ./run_experiments.sh [--scale quick|full] [--seeds N]
set -u
ARGS="${@:---scale quick --seeds 2}"
BIN=./target/release
LOG=results/logs
mkdir -p results "$LOG"
for exp in tab3_delta_size theory_convergence ablation_delta fig01_tsne \
           fig09_params fig11_fairness fig12_privacy tab1_cross_silo \
           tab2_cross_device fig02_03_mnist_curves fig04_05_cifar_curves \
           fig06_07_sent140_curves fig08_femnist fig10_efficiency \
           ext_future_work ext_stragglers; do
  echo "=== $exp ($(date +%H:%M:%S)) ==="
  $BIN/$exp $ARGS > "$LOG/$exp.txt" 2>&1
  echo "    done ($(date +%H:%M:%S))"
done
echo ALL_EXPERIMENTS_DONE
