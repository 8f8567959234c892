"""Small f64 metric-learning lab.

Reverse-mode autograd over column-per-sample matrices, a family of
embedding losses built on it (the main one predicts each sample's
leave-one-out class mean with a frozen target), PK batch sampling,
synthetic fixtures, CIFAR-10 ingestion, retrieval metrics, an SGD
trainer, and the experiments that compare loss geometries.
"""
