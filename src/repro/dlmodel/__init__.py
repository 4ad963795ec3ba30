"""DL-training analytics for the paper's case study (Fig. 13).

Layer-level models of the six Table 1 training workloads, plus:

* :mod:`repro.dlmodel.memory` — training footprint vs mini-batch
  (Fig. 13a; Caffe keeps data+diff per blob);
* :mod:`repro.dlmodel.throughput` — an images/s model in the
  Paleo/DeLTA family (Fig. 13b);
* :mod:`repro.dlmodel.casestudy` — throughput gained by the larger
  mini-batches Buddy Compression fits (Fig. 13c);
* :mod:`repro.dlmodel.convergence` — an SGD noise-scale accuracy
  model for the ResNet50/CIFAR100 experiment (Fig. 13d).
"""
