VERSION = "0.1.0"
GENERATOR_VERSION = "ring-sampler-3"
